// Package pagecache implements an OS buffer cache model: a byte-capacity
// bounded LRU of fixed-size pages keyed by (file, page index).
//
// It tracks only presence, not contents — in the simulation, data contents
// travel as blobs while the cache decides whether an access hits memory or
// must go to the disk model. Every gluster.Posix storage xlator owns one as
// its brick's buffer cache, which makes it the buffer cache of the
// GlusterFS bricks, the NFS server and the Lustre OSTs alike. (Lustre
// clients keep their own content cache; see internal/lustre.)
//
// The cache is the fig7b hot path: an 8 MiB readahead streamed through a
// few-hundred-page cache inserts and evicts a page per simulated event. It
// is therefore pointer-free and array-backed. Pages are nodes in one slice,
// threaded on an intrusive doubly linked LRU list and on an intrusive
// per-file chain, and found through an open-addressed index of node
// numbers. Both slices grow with residency and are reused across evictions
// and Clear, so steady-state Insert and all-hit Lookup allocate nothing.
package pagecache

import "imca/internal/telemetry"

// Range is a byte extent within a file.
type Range struct {
	Off, Len int64
}

// End returns the first byte past the range.
func (r Range) End() int64 { return r.Off + r.Len }

// nilNode terminates every intrusive list.
const nilNode = -1

// fileHeadIdx marks a file's chain sentinel in the idx field (page
// indexes are never negative).
const fileHeadIdx = -1

// node is one resident page, one file's chain sentinel, or a free slot.
// Links are indexes into Cache.nodes, nilNode for none.
type node struct {
	ino uint64
	idx int64
	// prev/next thread the LRU list (prev toward the MRU end); next also
	// threads the free list.
	prev, next int32
	// fprev/fnext thread the circular chain of the file's pages through
	// its sentinel.
	fprev, fnext int32
}

// Cache is a bounded LRU page cache. It is not safe for concurrent use; in
// the simulation exactly one continuation runs at a time, so no locking is
// needed.
type Cache struct {
	pageSize int64
	capacity int64
	used     int64

	nodes      []node
	free       int32 // head of the free list
	head, tail int32 // MRU and LRU page
	pages      int   // resident pages (sentinels excluded)

	// table is the open-addressed (ino, idx) → page index: node index+1
	// per slot, 0 for empty. Linear probing, backward-shift deletion, a
	// power-of-two size kept at most half full.
	table []int32
	shift uint // 64 - log2(len(table)): slot = hash >> shift

	// files maps an inode to its chain sentinel. It is written only when
	// a file gains its first page or loses its last one.
	files map[uint64]int32

	Hits, Misses, Evictions uint64

	// FillHist, when registered, receives the disk-fill latency of each
	// miss repaired by the cache's owner (the posix xlator observes into
	// it — the cache itself has no clock). Nil is a no-op.
	FillHist *telemetry.Hist
}

// minTableBits sizes the index of an empty cache; it doubles from there.
const minTableBits = 4

// New returns a cache bounded to capacity bytes of pageSize pages.
func New(capacity, pageSize int64) *Cache {
	if pageSize <= 0 || capacity < 0 {
		panic("pagecache: bad geometry")
	}
	return &Cache{
		pageSize: pageSize,
		capacity: capacity,
		free:     nilNode,
		head:     nilNode,
		tail:     nilNode,
		table:    make([]int32, 1<<minTableBits),
		shift:    64 - minTableBits,
		files:    make(map[uint64]int32),
	}
}

// PageSize returns the page size.
func (c *Cache) PageSize() int64 { return c.pageSize }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.pages }

// pageSpan returns the page index range [lo, hi) covering [off, off+size).
func (c *Cache) pageSpan(off, size int64) (lo, hi int64) {
	lo = off / c.pageSize
	hi = (off + size + c.pageSize - 1) / c.pageSize
	return lo, hi
}

// slot returns the home slot of (ino, idx): a fixed multiplicative hash,
// so the table layout, like everything else in the simulation, is the
// same on every run.
func (c *Cache) slot(ino uint64, idx int64) int {
	h := ino*0x9e3779b97f4a7c15 + uint64(idx)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return int(h >> c.shift)
}

// find returns the node holding page idx of ino, or nilNode.
func (c *Cache) find(ino uint64, idx int64) int32 {
	mask := len(c.table) - 1
	for i := c.slot(ino, idx); ; i = (i + 1) & mask {
		e := c.table[i]
		if e == 0 {
			return nilNode
		}
		if n := &c.nodes[e-1]; n.ino == ino && n.idx == idx {
			return e - 1
		}
	}
}

// Lookup checks which pages covering [off, off+size) of file ino are
// present. Present pages are freshened; the return value lists the missing
// extents (page-aligned, coalesced, in order). An empty result means the
// access is fully cached.
func (c *Cache) Lookup(ino uint64, off, size int64) []Range {
	if size <= 0 {
		return nil
	}
	lo, hi := c.pageSpan(off, size)
	var missing []Range
	for idx := lo; idx < hi; idx++ {
		if n := c.find(ino, idx); n != nilNode {
			c.Hits++
			c.moveToFront(n)
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
func (c *Cache) Contains(ino uint64, off, size int64) bool {
	if size <= 0 {
		return true
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if c.find(ino, idx) == nilNode {
			return false
		}
	}
	return true
}

// Insert adds all pages covering [off, off+size) of ino, evicting
// least-recently-used pages as needed. Pages already present are freshened.
//
//imcalint:hotpath fig7b and the rw_latency benchmark insert and evict about one page per simulated event; steady state must stay allocation-free
func (c *Cache) Insert(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	sentinel := int32(nilNode)
	for idx := lo; idx < hi; idx++ {
		if n := c.find(ino, idx); n != nilNode {
			c.moveToFront(n)
			continue
		}
		if c.pageSize > c.capacity {
			continue // degenerate: nothing fits
		}
		for c.used+c.pageSize > c.capacity {
			c.evictOldest()
		}
		// An eviction may have emptied this file and recycled its
		// sentinel; a slot still marked as ino's sentinel is current.
		if sentinel == nilNode || c.nodes[sentinel].idx != fileHeadIdx || c.nodes[sentinel].ino != ino {
			sentinel = c.fileSentinel(ino)
		}
		n := c.allocNode(ino, idx)
		c.pushFront(n)
		c.linkFile(sentinel, n)
		c.tableInsert(n)
		c.used += c.pageSize
	}
}

// fileSentinel returns ino's chain sentinel, creating it for the file's
// first page.
func (c *Cache) fileSentinel(ino uint64) int32 {
	if s, ok := c.files[ino]; ok {
		return s
	}
	s := c.allocNode(ino, fileHeadIdx)
	c.nodes[s].fprev, c.nodes[s].fnext = s, s
	c.files[ino] = s
	return s
}

// allocNode takes a node from the free list, or grows the node slice.
func (c *Cache) allocNode(ino uint64, idx int64) int32 {
	n := c.free
	if n == nilNode {
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{}) //imcalint:allow allocfree node slice grows with residency, amortized over every page it will hold
	} else {
		c.free = c.nodes[n].next
	}
	c.nodes[n] = node{ino: ino, idx: idx}
	return n
}

// freeNode returns n to the free list.
func (c *Cache) freeNode(n int32) {
	c.nodes[n] = node{next: c.free}
	c.free = n
}

// pushFront links n at the MRU end of the LRU list.
func (c *Cache) pushFront(n int32) {
	nd := &c.nodes[n]
	nd.prev, nd.next = nilNode, c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

// unlinkLRU removes n from the LRU list.
func (c *Cache) unlinkLRU(n int32) {
	nd := &c.nodes[n]
	if nd.prev != nilNode {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != nilNode {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// moveToFront freshens n.
func (c *Cache) moveToFront(n int32) {
	if c.head == n {
		return
	}
	c.unlinkLRU(n)
	c.pushFront(n)
}

// linkFile adds page n to the chain after sentinel s.
func (c *Cache) linkFile(s, n int32) {
	next := c.nodes[s].fnext
	c.nodes[n].fprev, c.nodes[n].fnext = s, next
	c.nodes[next].fprev = n
	c.nodes[s].fnext = n
}

// tableInsert indexes node n under its key, doubling the table first if
// that would take it past half full.
func (c *Cache) tableInsert(n int32) {
	if 2*(c.pages+1) > len(c.table) {
		c.growTable()
	}
	c.place(n)
	c.pages++
}

// place puts n in the first empty slot of its probe sequence.
func (c *Cache) place(n int32) {
	mask := len(c.table) - 1
	i := c.slot(c.nodes[n].ino, c.nodes[n].idx)
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = n + 1
}

// growTable doubles the index and re-places every resident page.
func (c *Cache) growTable() {
	old := c.table
	c.table = make([]int32, 2*len(old)) //imcalint:allow allocfree index doubles at half load, amortized over the pages that filled it
	c.shift--
	for _, e := range old {
		if e != 0 {
			c.place(e - 1)
		}
	}
}

// tableDelete unindexes n by backward-shift deletion: later entries of the
// probe run move up into the hole unless that would put them before their
// home slot, so no tombstones accumulate.
func (c *Cache) tableDelete(n int32) {
	mask := len(c.table) - 1
	i := c.slot(c.nodes[n].ino, c.nodes[n].idx)
	for c.table[i] != n+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		e := c.table[j]
		home := c.slot(c.nodes[e-1].ino, c.nodes[e-1].idx)
		// Move e into the hole at i iff home is cyclically outside (i, j].
		if (j-home)&mask >= (j-i)&mask {
			c.table[i] = e
			i = j
		}
	}
	c.table[i] = 0
	c.pages--
}

func (c *Cache) evictOldest() {
	if c.tail == nilNode {
		panic("pagecache: eviction from empty cache")
	}
	c.remove(c.tail)
	c.Evictions++
}

// remove drops resident page n, and its file's sentinel with the file's
// last page.
func (c *Cache) remove(n int32) {
	c.unlinkLRU(n)
	c.tableDelete(n)
	nd := &c.nodes[n]
	prev, next, ino := nd.fprev, nd.fnext, nd.ino
	c.nodes[prev].fnext = next
	c.nodes[next].fprev = prev
	if prev == next { // only the sentinel is left
		delete(c.files, ino)
		c.freeNode(prev)
	}
	c.freeNode(n)
	c.used -= c.pageSize
}

// InvalidateFile drops every cached page of ino.
func (c *Cache) InvalidateFile(ino uint64) {
	s, ok := c.files[ino]
	if !ok {
		return
	}
	for {
		n := c.nodes[s].fnext
		last := c.nodes[n].fnext == s
		c.remove(n)
		if last {
			return
		}
	}
}

// InvalidateRange drops cached pages overlapping [off, off+size) of ino.
func (c *Cache) InvalidateRange(ino uint64, off, size int64) {
	if size <= 0 {
		return
	}
	lo, hi := c.pageSpan(off, size)
	for idx := lo; idx < hi; idx++ {
		if n := c.find(ino, idx); n != nilNode {
			c.remove(n)
		}
	}
}

// Clear empties the cache (e.g. an unmount/remount for a cold-cache run),
// keeping its backing arrays for reuse.
func (c *Cache) Clear() {
	c.nodes = c.nodes[:0]
	c.free, c.head, c.tail = nilNode, nilNode, nilNode
	clear(c.table)
	clear(c.files)
	c.pages = 0
	c.used = 0
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
