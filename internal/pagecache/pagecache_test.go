package pagecache

import (
	"container/list"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"imca/internal/xrand"
)

func TestMissThenHit(t *testing.T) {
	c := New(1<<20, 4096)
	missing := c.Lookup(1, 0, 4096)
	if len(missing) != 1 || missing[0] != (Range{0, 4096}) {
		t.Fatalf("missing = %v, want one full page", missing)
	}
	c.Insert(1, 0, 4096)
	if got := c.Lookup(1, 0, 4096); len(got) != 0 {
		t.Errorf("after insert still missing %v", got)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestUnalignedLookupCoversPages(t *testing.T) {
	c := New(1<<20, 4096)
	// Bytes [4000, 4200) touch pages 0 and 1.
	missing := c.Lookup(1, 4000, 200)
	if len(missing) != 1 {
		t.Fatalf("missing = %v, want one coalesced range", missing)
	}
	if missing[0] != (Range{0, 8192}) {
		t.Errorf("missing = %v, want [0,8192)", missing[0])
	}
}

func TestPartialHitReturnsHoles(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 4096, 4096) // page 1 only
	missing := c.Lookup(1, 0, 12288)
	if len(missing) != 2 {
		t.Fatalf("missing = %v, want two holes", missing)
	}
	if missing[0] != (Range{0, 4096}) || missing[1] != (Range{8192, 4096}) {
		t.Errorf("missing = %v, want pages 0 and 2", missing)
	}
}

func TestFilesAreIndependent(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 4096)
	if got := c.Lookup(2, 0, 4096); len(got) != 1 {
		t.Errorf("file 2 hit on file 1's page")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3*4096, 4096) // 3 pages
	c.Insert(1, 0, 3*4096) // pages 0,1,2
	c.Lookup(1, 0, 4096)   // freshen page 0
	c.Insert(1, 3*4096, 4096)
	// Page 1 was least recently used; page 0 was freshened.
	if !c.Contains(1, 0, 4096) {
		t.Error("freshened page 0 was evicted")
	}
	if c.Contains(1, 4096, 4096) {
		t.Error("LRU page 1 survived eviction")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(10*4096, 4096)
	for i := int64(0); i < 100; i++ {
		c.Insert(uint64(i%7), i*4096, 4096)
		if c.Used() > 10*4096 {
			t.Fatalf("used %d exceeds capacity", c.Used())
		}
	}
	if c.Len() != 10 {
		t.Errorf("len = %d, want 10", c.Len())
	}
}

func TestInsertLargerThanCapacityKeepsSubset(t *testing.T) {
	c := New(4*4096, 4096)
	c.Insert(1, 0, 16*4096)
	if c.Used() != 4*4096 {
		t.Errorf("used = %d, want full capacity", c.Used())
	}
	// The most recently inserted pages survive.
	if !c.Contains(1, 12*4096, 4*4096) {
		t.Error("tail pages not resident after streaming insert")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 8*4096)
	c.Insert(2, 0, 4*4096)
	c.InvalidateFile(1)
	if c.Contains(1, 0, 4096) {
		t.Error("file 1 pages survived InvalidateFile")
	}
	if !c.Contains(2, 0, 4*4096) {
		t.Error("file 2 pages lost by file 1 invalidation")
	}
	if c.Used() != 4*4096 {
		t.Errorf("used = %d, want %d", c.Used(), 4*4096)
	}
}

func TestInvalidateRange(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 4*4096)
	c.InvalidateRange(1, 4096, 4096)
	if c.Contains(1, 4096, 4096) {
		t.Error("invalidated page still present")
	}
	if !c.Contains(1, 0, 4096) || !c.Contains(1, 8192, 8192) {
		t.Error("neighboring pages lost")
	}
}

func TestClear(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 64*4096)
	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("after Clear used=%d len=%d", c.Used(), c.Len())
	}
	if c.Contains(1, 0, 4096) {
		t.Error("page present after Clear")
	}
	// Cache remains usable.
	c.Insert(1, 0, 4096)
	if !c.Contains(1, 0, 4096) {
		t.Error("insert after Clear failed")
	}
}

func TestZeroSizeOps(t *testing.T) {
	c := New(1<<20, 4096)
	if got := c.Lookup(1, 100, 0); got != nil {
		t.Errorf("zero-size lookup = %v, want nil", got)
	}
	c.Insert(1, 100, 0)
	if c.Len() != 0 {
		t.Error("zero-size insert cached a page")
	}
	if !c.Contains(1, 100, 0) {
		t.Error("zero-size Contains should be true")
	}
}

func TestHitRate(t *testing.T) {
	c := New(1<<20, 4096)
	if c.HitRate() != 0 {
		t.Error("hit rate before lookups should be 0")
	}
	c.Insert(1, 0, 4096)
	c.Lookup(1, 0, 4096)    // hit
	c.Lookup(1, 4096, 4096) // miss
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %f, want 0.5", got)
	}
}

// Property: after Insert of an extent, Lookup of any sub-extent reports no
// missing pages.
func TestPropertyInsertCoversLookups(t *testing.T) {
	f := func(offRaw, sizeRaw uint16, subOff, subLen uint16) bool {
		c := New(1<<30, 4096)
		off := int64(offRaw)
		size := int64(sizeRaw%8192) + 1
		c.Insert(9, off, size)
		lo := off + int64(subOff)%size
		maxLen := off + size - lo
		l := int64(subLen)%maxLen + 1
		return len(c.Lookup(9, lo, l)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: used bytes always equal page count * page size and never exceed
// capacity.
func TestPropertyAccounting(t *testing.T) {
	f := func(ops []uint32) bool {
		const cap = 16 * 4096
		c := New(cap, 4096)
		for _, op := range ops {
			ino := uint64(op % 5)
			off := int64(op>>3) % (1 << 20)
			switch op % 4 {
			case 0, 1:
				c.Insert(ino, off, int64(op%9000)+1)
			case 2:
				c.Lookup(ino, off, int64(op%9000)+1)
			case 3:
				c.InvalidateFile(ino)
			}
			if c.Used() != int64(c.Len())*4096 || c.Used() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A cold pass misses every page and a warm re-read hits every page; Clear
// (an unmount) returns the cache to cold behaviour but keeps the counters,
// which belong to the measurement, not the contents.
func TestWarmVsColdPasses(t *testing.T) {
	const (
		ino      = uint64(3)
		fileSize = int64(64 << 10)
		pageSize = int64(4096)
	)
	pages := uint64(fileSize / pageSize)
	c := New(1<<20, pageSize)

	for off := int64(0); off < fileSize; off += pageSize {
		if missing := c.Lookup(ino, off, pageSize); len(missing) == 0 {
			t.Fatalf("cold lookup at %d hit", off)
		}
		c.Insert(ino, off, pageSize)
	}
	if c.Hits != 0 || c.Misses != pages {
		t.Fatalf("cold pass: hits/misses = %d/%d, want 0/%d", c.Hits, c.Misses, pages)
	}

	for off := int64(0); off < fileSize; off += pageSize {
		if missing := c.Lookup(ino, off, pageSize); len(missing) != 0 {
			t.Fatalf("warm lookup at %d missed %v", off, missing)
		}
	}
	if c.Hits != pages || c.Misses != pages {
		t.Fatalf("warm pass: hits/misses = %d/%d, want %d/%d", c.Hits, c.Misses, pages, pages)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5 after one cold and one warm pass", got)
	}
	if c.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (file fits)", c.Evictions)
	}

	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Errorf("after Clear: used %d bytes, %d pages", c.Used(), c.Len())
	}
	if c.Hits != pages || c.Misses != pages {
		t.Errorf("Clear reset the counters: hits/misses = %d/%d", c.Hits, c.Misses)
	}
	if missing := c.Lookup(ino, 0, pageSize); len(missing) == 0 {
		t.Error("lookup after Clear hit")
	}
	if c.Misses != pages+1 {
		t.Errorf("misses = %d after post-Clear lookup, want %d", c.Misses, pages+1)
	}
}

type key struct {
	ino uint64
	idx int64
}

// listCache is the container/list implementation the array-backed Cache
// replaced, kept verbatim (bar the names and the FillHist hook) as the
// reference model for TestDifferential: a bounded LRU page cache.
type listCache struct {
	pageSize int64
	capacity int64
	used     int64
	lru      *list.List // of key; front = most recent
	pages    map[key]*list.Element
	perFile  map[uint64]map[int64]struct{}

	Hits, Misses, Evictions uint64
}

// newListCache returns a cache bounded to capacity bytes of pageSize pages.
func newListCache(capacity, pageSize int64) *listCache {
	if pageSize <= 0 || capacity < 0 {
		panic("pagecache: bad geometry")
	}
	return &listCache{
		pageSize: pageSize,
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[key]*list.Element),
		perFile:  make(map[uint64]map[int64]struct{}),
	}
}

// PageSize returns the page size.
func (c *listCache) PageSize() int64 { return c.pageSize }

// Used returns the bytes currently cached.
func (c *listCache) Used() int64 { return c.used }

// Len returns the number of cached pages.
func (c *listCache) Len() int { return c.lru.Len() }

// pageSpan returns the page index range [lo, hi) covering [off, off+size).
func (c *listCache) pageSpan(off, size int64) (lo, hi int64) {
	lo = off / c.pageSize
	hi = (off + size + c.pageSize - 1) / c.pageSize
	return lo, hi
}

// Lookup checks which pages covering [off, off+size) of file ino are
// present. Present pages are freshened; the return value lists the missing
// extents (page-aligned, coalesced, in order). An empty result means the
// access is fully cached.
func (c *listCache) Lookup(ino uint64, off, size int64) []Range {
	if size <= 0 {
		return nil
	}
	lo, hi := c.pageSpan(off, size)
	var missing []Range
	for idx := lo; idx < hi; idx++ {
		if el, ok := c.pages[key{ino, idx}]; ok {
			c.Hits++
			c.lru.MoveToFront(el)
			continue
		}
		c.Misses++
		start := idx * c.pageSize
		if n := len(missing); n > 0 && missing[n-1].End() == start {
			missing[n-1].Len += c.pageSize
		} else {
			missing = append(missing, Range{Off: start, Len: c.pageSize})
		}
	}
	return missing
}

// Contains reports whether every page covering the extent is cached,
// without freshening or counting stats.
func (c *listCache) Contains(ino uint64, off, size int64) bool {
	if size <= 0 {
		return true
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if _, ok := c.pages[key{ino, idx}]; !ok {
			return false
		}
	}
	return true
}

// Insert adds all pages covering [off, off+size) of ino, evicting
// least-recently-used pages as needed. Pages already present are freshened.
func (c *listCache) Insert(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		k := key{ino, idx}
		if el, ok := c.pages[k]; ok {
			c.lru.MoveToFront(el)
			continue
		}
		if c.pageSize > c.capacity {
			continue // degenerate: nothing fits
		}
		for c.used+c.pageSize > c.capacity {
			c.evictOldest()
		}
		el := c.lru.PushFront(k)
		c.pages[k] = el
		c.used += c.pageSize
		f := c.perFile[ino]
		if f == nil {
			f = make(map[int64]struct{})
			c.perFile[ino] = f
		}
		f[idx] = struct{}{}
	}
}

func (c *listCache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		panic("pagecache: eviction from empty cache")
	}
	c.removeElement(el)
	c.Evictions++
}

func (c *listCache) removeElement(el *list.Element) {
	k := el.Value.(key)
	c.lru.Remove(el)
	delete(c.pages, k)
	c.used -= c.pageSize
	if f := c.perFile[k.ino]; f != nil {
		delete(f, k.idx)
		if len(f) == 0 {
			delete(c.perFile, k.ino)
		}
	}
}

// InvalidateFile drops every cached page of ino.
func (c *listCache) InvalidateFile(ino uint64) {
	f := c.perFile[ino]
	for idx := range f {
		if el, ok := c.pages[key{ino, idx}]; ok {
			c.removeElement(el)
		}
	}
}

// InvalidateRange drops cached pages overlapping [off, off+size) of ino.
func (c *listCache) InvalidateRange(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if el, ok := c.pages[key{ino, idx}]; ok {
			c.removeElement(el)
		}
	}
}

// Clear empties the cache (e.g. an unmount/remount for a cold-cache run).
func (c *listCache) Clear() {
	c.lru.Init()
	c.pages = make(map[key]*list.Element)
	c.perFile = make(map[uint64]map[int64]struct{})
	c.used = 0
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *listCache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// lruOrder returns c's pages from most to least recently used.
func lruOrder(c *Cache) []key {
	var out []key
	for n := c.head; n != nilNode; n = c.nodes[n].next {
		out = append(out, key{c.nodes[n].ino, c.nodes[n].idx})
	}
	return out
}

// listOrder returns the reference model's pages from most to least
// recently used.
func listOrder(c *listCache) []key {
	var out []key
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(key))
	}
	return out
}

// checkStructure verifies the array-backed cache's internal links: the LRU
// list is consistent both ways, every page is indexed exactly once, and
// each file's chain holds exactly that file's pages.
func checkStructure(t *testing.T, c *Cache) {
	t.Helper()
	perIno := make(map[uint64]int)
	prev := int32(nilNode)
	count := 0
	for n := c.head; n != nilNode; n = c.nodes[n].next {
		nd := c.nodes[n]
		if nd.prev != prev || nd.idx < 0 {
			t.Fatalf("LRU node %d: prev %d want %d, idx %d", n, nd.prev, prev, nd.idx)
		}
		if c.find(nd.ino, nd.idx) != n {
			t.Fatalf("page (%d,%d) at node %d not found through the index", nd.ino, nd.idx, n)
		}
		perIno[nd.ino]++
		prev = n
		count++
	}
	if c.tail != prev || count != c.pages {
		t.Fatalf("tail %d want %d, %d pages linked, %d counted", c.tail, prev, count, c.pages)
	}
	indexed := 0
	for _, e := range c.table {
		if e != 0 {
			indexed++
		}
	}
	if indexed != count || 2*indexed > len(c.table) {
		t.Fatalf("%d indexed entries for %d pages in %d slots", indexed, count, len(c.table))
	}
	if len(c.files) != len(perIno) {
		t.Fatalf("%d file chains for %d files", len(c.files), len(perIno))
	}
	for ino, s := range c.files {
		if c.nodes[s].ino != ino || c.nodes[s].idx != fileHeadIdx {
			t.Fatalf("file %d: sentinel %d is %+v", ino, s, c.nodes[s])
		}
		n, p := 0, s
		for x := c.nodes[s].fnext; x != s; x = c.nodes[x].fnext {
			if c.nodes[x].ino != ino || c.nodes[x].fprev != p {
				t.Fatalf("file %d chain broken at node %d", ino, x)
			}
			p = x
			n++
		}
		if n != perIno[ino] {
			t.Fatalf("file %d chain has %d pages, LRU has %d", ino, n, perIno[ino])
		}
	}
}

// geometry drives one differential run: a cache shape and the op stream's
// extent ranges.
type geometry struct {
	name               string
	capacity, pageSize int64
	inos               []uint64 // some are never inserted, so ops on them are no-ops
	maxPage            int64    // offsets fall in pages [0, maxPage)
	maxPages           int64    // extents span up to this many pages
	ops                int
}

// metaBit marks metadata inodes the way gluster.Posix.metaKey does.
const metaBit = uint64(1) << 63

var geometries = []geometry{
	{"sub-page", 1000, 4096, []uint64{1, 2, 3}, 16, 4, 2000},
	{"one-page", 4096, 4096, []uint64{1, 2, 3}, 16, 4, 2000},
	{"small", 32 * 4096, 4096, []uint64{1, 2, 3, 4, 5, 6}, 96, 24, 4000},
	// fig7b: a 384-page cache fed readaheads of up to 2048 pages.
	{"fig7b-thrash", 384 * 4096, 4096, []uint64{1, 2, 3, 4, 5}, 4096, 2048, 600},
	{"meta-keys", 48 * 4096, 4096, []uint64{7, 7 | metaBit, 8, 8 | metaBit, 9 | metaBit, 1 | metaBit}, 64, 12, 4000},
	{"odd-page", 20 * 1000, 1000, []uint64{1, 2, 3}, 64, 16, 3000},
}

// TestDifferential drives the array-backed cache and the container/list
// reference with the same seeded op streams and requires identical
// results, counters and full LRU order after every op.
func TestDifferential(t *testing.T) {
	for _, g := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			g, seed := g, seed
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				runDifferential(t, g, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, g geometry, seed uint64) {
	r := xrand.New(seed)
	c := New(g.capacity, g.pageSize)
	ref := newListCache(g.capacity, g.pageSize)
	for i := 0; i < g.ops; i++ {
		ino := g.inos[r.Intn(len(g.inos))]
		off := r.Int63n(g.maxPage*g.pageSize) - g.pageSize/2
		if off < 0 {
			off = 0
		}
		size := r.Int63n(g.maxPages*g.pageSize+1) - g.pageSize/4 // a few are ≤ 0
		var op string
		switch p := r.Intn(100); {
		case p < 40:
			op = "Insert"
			c.Insert(ino, off, size)
			ref.Insert(ino, off, size)
		case p < 75:
			op = "Lookup"
			got, want := c.Lookup(ino, off, size), ref.Lookup(ino, off, size)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d Lookup(%d,%d,%d) = %v, want %v", i, ino, off, size, got, want)
			}
		case p < 85:
			op = "Contains"
			if got, want := c.Contains(ino, off, size), ref.Contains(ino, off, size); got != want {
				t.Fatalf("op %d Contains(%d,%d,%d) = %v, want %v", i, ino, off, size, got, want)
			}
		case p < 92:
			op = "InvalidateRange"
			c.InvalidateRange(ino, off, size)
			ref.InvalidateRange(ino, off, size)
		case p < 99:
			op = "InvalidateFile"
			c.InvalidateFile(ino)
			ref.InvalidateFile(ino)
		default:
			op = "Clear"
			c.Clear()
			ref.Clear()
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evictions {
			t.Fatalf("op %d %s: hits/misses/evictions %d/%d/%d, want %d/%d/%d", i, op,
				c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evictions)
		}
		if c.Used() != ref.Used() || c.Len() != ref.Len() {
			t.Fatalf("op %d %s: used/len %d/%d, want %d/%d", i, op, c.Used(), c.Len(), ref.Used(), ref.Len())
		}
		if got, want := lruOrder(c), listOrder(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d %s: LRU order\n got %v\nwant %v", i, op, got, want)
		}
		checkStructure(t, c)
	}
	if c.Evictions == 0 && g.capacity >= g.pageSize {
		t.Errorf("stream never evicted; the geometry does not exercise eviction")
	}
}

// TestClearReusesArrays: Clear keeps the node slice and index for reuse.
func TestClearReusesArrays(t *testing.T) {
	c := New(1<<20, 4096)
	c.Insert(1, 0, 64*4096)
	nodes, table := cap(c.nodes), len(c.table)
	c.Clear()
	checkStructure(t, c)
	if cap(c.nodes) != nodes || len(c.table) != table {
		t.Errorf("Clear reallocated: nodes cap %d→%d, table %d→%d", nodes, cap(c.nodes), table, len(c.table))
	}
	c.Insert(2, 0, 64*4096)
	if cap(c.nodes) != nodes || len(c.table) != table {
		t.Errorf("refill after Clear grew: nodes cap %d→%d, table %d→%d", nodes, cap(c.nodes), table, len(c.table))
	}
	checkStructure(t, c)
}

// TestSteadyStateAllocFree pins the zero-alloc contract of the fig7b hot
// path: once the arrays have grown to the cache's residency, inserting with
// eviction and all-hit lookups allocate nothing. (A lookup with holes
// allocates its returned []Range by contract.)
func TestSteadyStateAllocFree(t *testing.T) {
	const pages = 384
	c := New(pages*4096, 4096)
	off := int64(0)
	insert := func() {
		c.Insert(uint64(off/(256*4096)), off%(256*4096), 64*4096)
		off += 64 * 4096
	}
	for i := 0; i < 64; i++ {
		insert() // warm up: grow the arrays, fill, start evicting
	}
	if n := testing.AllocsPerRun(200, insert); n != 0 {
		t.Errorf("Insert with eviction: %.1f allocs/op, want 0", n)
	}
	if c.Evictions == 0 {
		t.Fatal("the steady-state stream did not evict")
	}
	ino, start := c.nodes[c.head].ino, c.nodes[c.head].idx
	lookup := func() {
		if c.Lookup(ino, start*4096, 4096) != nil {
			t.Fatal("lookup of the MRU page missed")
		}
	}
	if n := testing.AllocsPerRun(200, lookup); n != 0 {
		t.Errorf("all-hit Lookup: %.1f allocs/op, want 0", n)
	}
}

// BenchmarkInsertEvict streams fig7b-shaped readaheads (256-page files)
// through a 384-page cache: every page inserted evicts one.
func BenchmarkInsertEvict(b *testing.B) {
	c := New(384*4096, 4096)
	const file = 256 * 4096
	c.Insert(1<<32, 0, file)
	c.Insert(1<<32+1, 0, file)
	b.ReportAllocs()
	b.ResetTimer()
	evicted := c.Evictions
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), 0, file)
	}
	b.ReportMetric(float64(c.Evictions-evicted)/float64(b.N), "evictions/op")
}

// BenchmarkLookupHit freshens one resident 16-page extent per op.
func BenchmarkLookupHit(b *testing.B) {
	c := New(384*4096, 4096)
	for ino := uint64(0); ino < 24; ino++ {
		c.Insert(ino, 0, 16*4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(uint64(i%24), 0, 16*4096) != nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkInvalidateFile drops a 64-page file from a full cache and
// re-inserts it.
func BenchmarkInvalidateFile(b *testing.B) {
	c := New(384*4096, 4096)
	for ino := uint64(0); ino < 6; ino++ {
		c.Insert(ino, 0, 64*4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ino := uint64(i % 6)
		c.InvalidateFile(ino)
		c.Insert(ino, 0, 64*4096)
	}
}
