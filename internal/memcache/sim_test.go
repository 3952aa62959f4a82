package memcache

import (
	"fmt"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/fabric"
	"imca/internal/optrace"
	"imca/internal/sim"
)

// simBank builds a client node plus n MCDs on an IPoIB network.
func simBank(n int, mcdMemMB int64) (*sim.Env, *SimClient) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	client := net.NewNode("client", 8)
	servers := make([]*SimServer, n)
	for i := range servers {
		servers[i] = NewSimServer(net.NewNode(fmt.Sprintf("mcd%d", i), 8), mcdMemMB<<20)
	}
	return env, NewSimClient(client, servers)
}

func TestSimSetGet(t *testing.T) {
	env, cl := simBank(1, 64)
	p := env.ContextTask("t")
	if err := bank(cl).Set(p, "k", blob.FromString("value")); err != nil {
		t.Fatal(err)
	}
	it, ok := bank(cl).Get(p, "k")
	if !ok || string(it.Value.Bytes()) != "value" {
		t.Errorf("get = %v, %v", it, ok)
	}
	if _, ok := bank(cl).Get(p, "missing"); ok {
		t.Error("hit on missing key")
	}
	env.Run()
}

func TestSimGetCostsARoundTrip(t *testing.T) {
	env, cl := simBank(1, 64)
	var getTime sim.Duration
	p := env.ContextTask("t")
	bank(cl).Set(p, "k", blob.FromString("v"))
	start := p.Now()
	bank(cl).Get(p, "k")
	getTime = p.Now().Sub(start)
	env.Run()
	if getTime < 2*fabric.IPoIB.Latency {
		t.Errorf("get took %v, below a network round trip", getTime)
	}
	if getTime > time.Millisecond {
		t.Errorf("get took %v, implausibly slow", getTime)
	}
}

func TestSimDelete(t *testing.T) {
	env, cl := simBank(2, 64)
	p := env.ContextTask("t")
	bank(cl).Set(p, "k", blob.FromString("v"))
	if !bank(cl).Delete(p, "k") {
		t.Error("delete of present key reported not found")
	}
	if bank(cl).Delete(p, "k") {
		t.Error("delete of absent key reported found")
	}
	if _, ok := bank(cl).Get(p, "k"); ok {
		t.Error("key present after delete")
	}
	env.Run()
}

func TestSimKeysSpreadAcrossBank(t *testing.T) {
	env, cl := simBank(4, 64)
	p := env.ContextTask("t")
	for i := 0; i < 200; i++ {
		bank(cl).Set(p, fmt.Sprintf("key-%d", i), blob.FromString("v"))
	}
	env.Run()
	for i, s := range cl.Servers() {
		if s.Store().Len() == 0 {
			t.Errorf("mcd%d received no keys (bad CRC32 spread)", i)
		}
	}
	if cl.BankStats().CurrItems != 200 {
		t.Errorf("bank total = %d, want 200", cl.BankStats().CurrItems)
	}
}

func TestSimGetMultiBatchesPerServer(t *testing.T) {
	env, cl := simBank(4, 64)
	keys := make([]string, 32)
	p := env.ContextTask("t")
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%d", i)
		bank(cl).Set(p, keys[i], blob.FromString("v"))
	}
	items := bank(cl).GetMulti(p, keys)
	if len(items) != len(keys) {
		t.Errorf("GetMulti returned %d, want %d", len(items), len(keys))
	}
	env.Run()
	// One batched get per server, not one per key: each store's CmdGet
	// counts keys, but message counts stay at one per server per phase.
	var totalGets uint64
	for _, s := range cl.Servers() {
		totalGets += s.Store().Stats().CmdGet
	}
	if totalGets != 32 {
		t.Errorf("store-level gets = %d, want 32", totalGets)
	}
}

func TestSimGetMultiParallelAcrossServers(t *testing.T) {
	// Fetching 4 large values spread over 4 MCDs should take much less
	// than 4x one fetch, because the per-server batches run in parallel.
	mkKeys := func(cl *SimClient) []string {
		// Pick keys that land on distinct servers.
		used := map[int]string{}
		for i := 0; len(used) < 4 && i < 10000; i++ {
			k := fmt.Sprintf("pk-%d", i)
			s := cl.selector.Pick(k, 4)
			if _, ok := used[s]; !ok {
				used[s] = k
			}
		}
		out := make([]string, 0, 4)
		for s := 0; s < 4; s++ {
			out = append(out, used[s])
		}
		return out
	}

	env, cl := simBank(4, 64)
	keys := mkKeys(cl)
	const valSize = 256 << 10
	var oneAtATime, batched sim.Duration
	p := env.ContextTask("t")
	for _, k := range keys {
		bank(cl).Set(p, k, blob.Synthetic(1, 0, valSize))
	}
	start := p.Now()
	for _, k := range keys {
		bank(cl).Get(p, k)
	}
	oneAtATime = p.Now().Sub(start)
	start = p.Now()
	items := bank(cl).GetMulti(p, keys)
	batched = p.Now().Sub(start)
	if len(items) != 4 {
		t.Fatalf("GetMulti found %d of 4", len(items))
	}
	env.Run()
	if batched >= oneAtATime {
		t.Errorf("batched multi-get (%v) not faster than serial gets (%v)", batched, oneAtATime)
	}
}

func TestSimCapacityEvictions(t *testing.T) {
	// A 2MB MCD cannot hold 4MB of values: evictions must appear and
	// early keys must miss.
	env, cl := simBank(1, 2)
	p := env.ContextTask("t")
	for i := 0; i < 64; i++ {
		bank(cl).Set(p, fmt.Sprintf("big-%d", i), blob.Synthetic(uint64(i), 0, 64<<10))
	}
	if _, ok := bank(cl).Get(p, "big-0"); ok {
		t.Error("oldest item survived in an overcommitted MCD")
	}
	if _, ok := bank(cl).Get(p, "big-63"); !ok {
		t.Error("newest item missing")
	}
	env.Run()
	if cl.BankStats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestSimServerSharedByManyClients(t *testing.T) {
	env := sim.NewEnv()
	net := fabric.NewNetwork(env, fabric.IPoIB)
	srv := NewSimServer(net.NewNode("mcd", 8), 64<<20)
	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		node := net.NewNode(fmt.Sprintf("c%d", i), 8)
		cl := NewSimClient(node, []*SimServer{srv})
		i := i
		env.StartTask("client", func(tk *sim.Task) {
			key := fmt.Sprintf("shared-%d", i)
			cl.Set(tk, key, blob.FromString("v"), func(error) {
				cl.Get(tk, key, func(_ *Item, ok bool) {
					if !ok {
						t.Errorf("client %d lost its key", i)
					}
					done++
					tk.End()
				})
			})
		})
	}
	env.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
	if srv.Store().Len() != n {
		t.Errorf("server items = %d, want %d", srv.Store().Len(), n)
	}
}

func TestSimStoreExpiresOnVirtualClock(t *testing.T) {
	env, cl := simBank(1, 64)
	store := cl.Servers()[0].Store()
	p := env.ContextTask("t")
	// Store an item expiring 5 virtual seconds from now, directly via
	// the engine (IMCa itself never sets TTLs).
	store.Set(&Item{Key: "ttl", Value: blob.FromString("v"),
		Expiration: int64(p.Now().Seconds()) + 5})
	if _, err := store.Get("ttl"); err != nil {
		t.Fatal("item missing before expiry")
	}
	sleep(p, 6*time.Second) // virtual time, instantaneous on the wall
	if _, err := store.Get("ttl"); err != ErrCacheMiss {
		t.Error("item survived its virtual-time expiry")
	}
	env.Run()
}

func TestSimGetMultiWithOneMCDDown(t *testing.T) {
	// Fail 1 MCD of 4: GetMulti must return exactly the keys served by the
	// survivors, count the dead daemon's reset, and never stall.
	env, cl := simBank(4, 64)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("dk-%d", i)
	}
	victim := 2
	var onDead, onLive int
	for _, k := range keys {
		if cl.selector.Pick(k, 4) == victim {
			onDead++
		} else {
			onLive++
		}
	}
	if onDead == 0 || onLive == 0 {
		t.Fatal("key set does not exercise both dead and live MCDs")
	}
	p := env.ContextTask("t")
	for _, k := range keys {
		bank(cl).Set(p, k, blob.FromString("v"))
	}
	cl.Servers()[victim].Fail()
	items := bank(cl).GetMulti(p, keys)
	if len(items) != onLive {
		t.Errorf("GetMulti found %d keys, want %d (the live MCDs' share)", len(items), onLive)
	}
	for _, k := range keys {
		_, got := items[k]
		wantHit := cl.selector.Pick(k, 4) != victim
		if got != wantHit {
			t.Errorf("key %s: hit=%v, want %v", k, got, wantHit)
		}
	}
	env.Run()
	if got := cl.BankStats().DownReplies; got != 1 {
		t.Errorf("DownReplies = %d, want 1 (one batched request hit the dead MCD)", got)
	}
}

func TestSimGetFromDownMCDIsAMiss(t *testing.T) {
	env, cl := simBank(1, 64)
	p := env.ContextTask("t")
	bank(cl).Set(p, "k", blob.FromString("v"))
	cl.Servers()[0].Fail()
	if _, ok := bank(cl).Get(p, "k"); ok {
		t.Error("hit from a failed daemon")
	}
	if err := bank(cl).Set(p, "k", blob.FromString("v")); err != ErrServerDown {
		t.Errorf("Set on dead MCD: err = %v, want ErrServerDown", err)
	}
	cl.Servers()[0].Recover()
	if _, ok := bank(cl).Get(p, "k"); ok {
		t.Error("recovered daemon should restart empty")
	}
	env.Run()
	if got := cl.DownReplies(); got != 2 {
		t.Errorf("DownReplies = %d, want 2 (one get + one set refused)", got)
	}
}

func TestSimGetDeadlineIsAMiss(t *testing.T) {
	// An operation deadline shorter than the MCD round trip turns the get
	// into a miss without failing it — and must not count as a down reply.
	env, cl := simBank(1, 64)
	col := optrace.NewCollector()
	p := env.ContextTask("t")
	bank(cl).Set(p, "k", blob.FromString("v"))
	op := col.Begin(p, "get")
	op.SetDeadline(p.Now().Add(time.Microsecond)) // far below one RTT
	deadline, _ := op.DeadlineTime()
	start := p.Now()
	if _, ok := bank(cl).Get(p, "k"); ok {
		t.Error("hit despite an expired deadline")
	}
	// The deadline expires while the request is still serializing; the
	// caller resumes once the send completes (a send in flight cannot be
	// aborted), past the deadline but well short of a full round trip.
	if p.Now() < deadline {
		t.Errorf("caller resumed at %v, before the deadline %v", p.Now(), deadline)
	}
	if rtt := p.Now().Sub(start); rtt > 60*time.Microsecond {
		t.Errorf("abandoned get took %v, should not wait for the response", rtt)
	}
	col.End(p)
	env.Run()
	if got := cl.DownReplies(); got != 0 {
		t.Errorf("DownReplies = %d, want 0 (deadline is not a down reply)", got)
	}
	var mcd *optrace.Span
	for _, s := range col.Last.Spans {
		if s.Layer == optrace.LayerMCD {
			mcd = s
		}
	}
	if mcd.Attr("result") != "deadline" {
		t.Errorf("mcd span result = %q, want deadline", mcd.Attr("result"))
	}
}
