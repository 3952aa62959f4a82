package fault

import (
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
	"imca/internal/cluster"
	"imca/internal/gluster"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error, "" = valid
	}{
		{"valid", Plan{Name: "ok", Events: []Event{
			{At: 0, Kind: MCDCrash, Target: "mcd0"},
			{At: time.Millisecond, Kind: MCDRecover, Target: "mcd0"},
		}}, ""},
		{"negative offset", Plan{Events: []Event{
			{At: -1, Kind: MCDCrash, Target: "mcd0"},
		}}, "negative offset"},
		{"decreasing offsets", Plan{Events: []Event{
			{At: time.Millisecond, Kind: MCDCrash, Target: "mcd0"},
			{At: time.Microsecond, Kind: MCDRecover, Target: "mcd0"},
		}}, "before previous"},
		{"empty target", Plan{Events: []Event{{Kind: MCDCrash}}}, "empty target"},
		{"missing peer", Plan{Events: []Event{
			{Kind: LinkCut, Target: "client0"},
		}}, "needs a peer"},
		{"bad degrade", Plan{Events: []Event{
			{Kind: LinkDegrade, Target: "client0", Peer: "mcd0", Latency: 0, Bandwidth: 1},
		}}, "non-positive degrade"},
		{"bad slowdown", Plan{Events: []Event{
			{Kind: DiskSlow, Target: "brick0", Factor: 0.5},
		}}, "below 1"},
		{"unknown kind", Plan{Events: []Event{
			{Kind: Kind(99), Target: "x"},
		}}, "unknown kind"},
	}
	for _, tc := range cases {
		err := tc.plan.validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanStringIsReplayable(t *testing.T) {
	pl := Plan{Name: "demo", Events: []Event{
		{At: time.Millisecond, Kind: MCDCrash, Target: "mcd0"},
		{At: 2 * time.Millisecond, Kind: LinkDegrade, Target: "client0", Peer: "mcd1", Latency: 4, Bandwidth: 0.25},
		{At: 3 * time.Millisecond, Kind: DiskSlow, Target: "brick0", Factor: 2},
	}}
	s := pl.String()
	for _, want := range []string{
		`plan "demo"`,
		"@1ms mcd-crash mcd0",
		"@2ms link-degrade client0<->mcd1 lat=4 bw=0.25",
		"@3ms disk-slow brick0 factor=2",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestArmRejectsUnknownTargets(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20})
	in := NewInjector(c)
	bad := []Plan{
		{Name: "no such mcd", Events: []Event{{Kind: MCDCrash, Target: "mcd7"}}},
		{Name: "no such brick", Events: []Event{{Kind: BrickFail, Target: "brick9"}}},
		{Name: "no such node", Events: []Event{{Kind: LinkCut, Target: "client0", Peer: "ghost"}}},
	}
	for _, pl := range bad {
		if err := in.Arm(&pl); err == nil {
			t.Errorf("%s: Arm accepted an unresolvable target", pl.Name)
		}
	}
	if in.Armed() != 0 {
		t.Errorf("failed Arms still scheduled %d events", in.Armed())
	}
}

// TestInjectorCrashAndRecover arms a crash/recover pair and checks the
// daemon's state flips at exactly the scheduled virtual instants.
func TestInjectorCrashAndRecover(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 2, MCDMemBytes: 8 << 20})
	in := NewInjector(c)
	plan := &Plan{Name: "crash mcd0", Events: []Event{
		{At: 10 * time.Millisecond, Kind: MCDCrash, Target: "mcd0"},
		{At: 30 * time.Millisecond, Kind: MCDRecover, Target: "mcd0"},
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	if in.Armed() != 2 {
		t.Fatalf("armed = %d, want 2", in.Armed())
	}
	type probe struct {
		at   sim.Duration
		down bool
	}
	var got []probe
	for _, at := range []sim.Duration{5 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond} {
		at := at
		c.Env.Defer(at, func() { got = append(got, probe{at, c.MCDs[0].Down()}) })
	}
	c.Env.Run()
	want := []probe{
		{5 * time.Millisecond, false},
		{20 * time.Millisecond, true},
		{40 * time.Millisecond, false},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if c.MCDs[1].Down() {
		t.Error("mcd1 affected by a plan targeting mcd0")
	}
	if in.Fired() != 2 {
		t.Errorf("fired = %d, want 2", in.Fired())
	}
}

// TestCrashRecoverSameInstant: a crash and a recover armed at the same
// virtual offset model the fastest possible restart. Events at equal
// offsets fire in declaration order, so the daemon must end the instant
// up — but cold, because the crash flushed its store first.
func TestCrashRecoverSameInstant(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20, BlockSize: 1024})
	fs := c.Mounts[0].FS
	p := c.Env.ContextTask("warm")
	fd, err := blocking(fs).Create(p, "/r/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := blocking(fs).Write(p, fd, 0, blob.Synthetic(9, 0, 8192)); err != nil {
		t.Errorf("write: %v", err)
	}
	if _, err := blocking(fs).Read(p, fd, 0, 8192); err != nil {
		t.Errorf("read: %v", err)
	}
	c.Env.Run()
	if len(c.MCDs[0].Store().Keys()) == 0 {
		t.Fatal("warm pass cached nothing; the test needs a populated store")
	}
	in := NewInjector(c)
	const at = 5 * time.Millisecond
	if err := in.Arm(&Plan{Name: "instant restart", Events: []Event{
		{At: at, Kind: MCDCrash, Target: "mcd0"},
		{At: at, Kind: MCDRecover, Target: "mcd0"},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Env.Run()
	if in.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", in.Fired())
	}
	if c.MCDs[0].Down() {
		t.Error("daemon down after a same-instant crash+recover (events fired out of declaration order?)")
	}
	if n := len(c.MCDs[0].Store().Keys()); n != 0 {
		t.Errorf("store kept %d keys across the crash; a restart must come up cold", n)
	}
}

// TestInjectorBrickOutage checks a brick outage refuses traffic with
// ErrServerDown and that recovery restores service over intact storage.
func TestInjectorBrickOutage(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1})
	in := NewInjector(c)
	// The default disk model pays ~8ms seeks on the create and write, so
	// the outage starts well after the data has persisted.
	plan := &Plan{Name: "brick bounce", Events: []Event{
		{At: 30 * time.Millisecond, Kind: BrickFail, Target: "brick0"},
		{At: 45 * time.Millisecond, Kind: BrickRecover, Target: "gfs-server"}, // node-name alias
	}}
	if err := in.Arm(plan); err != nil {
		t.Fatal(err)
	}
	fs := c.Mounts[0].FS
	var duringErr, afterErr error
	var afterData blob.Blob
	p := c.Env.ContextTask("t")
	fd, err := blocking(fs).Create(p, "/o/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, werr := blocking(fs).Write(p, fd, 0, blob.Synthetic(7, 0, 4096)); werr != nil {
		t.Errorf("write: %v", werr)
	}
	sleep(p, sim.Time(0).Add(35*time.Millisecond).Sub(p.Now()))
	_, duringErr = blocking(fs).Read(p, fd, 0, 4096)
	sleep(p, sim.Time(0).Add(55*time.Millisecond).Sub(p.Now()))
	afterData, afterErr = blocking(fs).Read(p, fd, 0, 4096)
	c.Env.Run()
	if duringErr != gluster.ErrServerDown {
		t.Errorf("read during outage: %v, want ErrServerDown", duringErr)
	}
	if afterErr != nil {
		t.Errorf("read after recovery: %v", afterErr)
	}
	if !afterData.Equal(blob.Synthetic(7, 0, 4096)) {
		t.Error("data lost across a brick outage (storage should stay intact)")
	}
}

// TestInjectorDiskSlow checks a disk slowdown stretches read latency and
// that factor 1 restores it.
func TestInjectorDiskSlow(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, ServerCacheBytes: 1 << 20})
	in := NewInjector(c)
	if err := in.Arm(&Plan{Name: "slow disk", Events: []Event{
		{At: 0, Kind: DiskSlow, Target: "brick0", Factor: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Env.Run()
	if got := c.Bricks[0].Array.Disks()[0].Slowdown(); got != 8 {
		t.Fatalf("member slowdown = %g, want 8", got)
	}
	if err := in.Arm(&Plan{Name: "restore disk", Events: []Event{
		{At: 0, Kind: DiskSlow, Target: "brick0", Factor: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	c.Env.Run()
	if got := c.Bricks[0].Array.Disks()[0].Slowdown(); got != 1 {
		t.Fatalf("member slowdown after restore = %g, want 1", got)
	}
}

func TestInjectorRegister(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20})
	in := NewInjector(c)
	if err := in.Arm(&Plan{Name: "one", Events: []Event{
		{At: time.Millisecond, Kind: MCDCrash, Target: "mcd0"},
	}}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Register(reg, "fault")
	c.Env.Run()
	var b strings.Builder
	reg.Dump(&b)
	dump := b.String()
	for _, want := range []string{"fault.armed", "fault.fired"} {
		if !strings.Contains(dump, want) {
			t.Errorf("telemetry dump missing %s:\n%s", want, dump)
		}
	}
}

// TestOracleTracksHappyPath exercises the shadow bookkeeping with no
// faults: a correct stack must produce zero violations.
func TestOracleTracksHappyPath(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20, BlockSize: 1024})
	o := NewOracle(c.Mounts[0].FS)
	p := c.Env.ContextTask("t")
	fd, err := blocking(o).Create(p, "/h/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	blocking(o).Write(p, fd, 0, blob.Synthetic(3, 0, 3000))
	blocking(o).Write(p, fd, 1500, blob.Synthetic(4, 0, 100)) // overlap
	blocking(o).Write(p, fd, 5000, blob.Synthetic(5, 0, 10))  // hole
	blocking(o).Read(p, fd, 0, 8192)                          // short read at EOF
	blocking(o).Truncate(p, "/h/f", 2000)
	blocking(o).Stat(p, "/h/f")
	blocking(o).Truncate(p, "/h/f", 4000) // zero-extend
	blocking(o).Read(p, fd, 1000, 3000)
	blocking(o).Close(p, fd)
	verifyAll(p, o)
	c.Env.Run()
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("violations on a healthy stack:\n%s", strings.Join(v, "\n"))
	}
}

// TestOracleOrphanedDescriptorWrite: POSIX keeps an unlinked file readable
// and writable through descriptors that were open at unlink time, but the
// file is gone from the namespace. A write through such an orphaned
// descriptor must not resurrect the path-visible shadow entry — that would
// make the end-of-run audit demand an open-by-path of an unlinked file and
// report a phantom "file lost" violation.
func TestOracleOrphanedDescriptorWrite(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20, BlockSize: 1024})
	o := NewOracle(c.Mounts[0].FS)
	p := c.Env.ContextTask("t")
	fd, err := blocking(o).Create(p, "/u/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	blocking(o).Write(p, fd, 0, blob.Synthetic(1, 0, 512))
	if err := blocking(o).Unlink(p, "/u/f"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := blocking(o).Write(p, fd, 512, blob.Synthetic(2, 0, 512)); err != nil {
		t.Errorf("write through orphaned descriptor: %v", err)
	}
	blocking(o).Close(p, fd)
	verifyAll(p, o)
	c.Env.Run()
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("orphaned-descriptor write produced violations:\n%s", strings.Join(v, "\n"))
	}
}

// TestOracleCatchesStaleRead demonstrates the model boundary the oracle
// polices: an asymmetric partition between the server and one MCD makes
// the server's purges/pushes fail silently while clients still reach the
// daemon, so a later read serves the stale cached block. The §4.4 argument
// explicitly excludes this case (it assumes the server can always reach
// the bank it populated) — the oracle must flag it, proving the harness
// can see real staleness, not just pass healthy runs.
func TestOracleCatchesStaleRead(t *testing.T) {
	c := cluster.New(cluster.Options{Clients: 1, MCDs: 1, MCDMemBytes: 8 << 20, BlockSize: 1024})
	o := NewOracle(c.Mounts[0].FS)
	p := c.Env.ContextTask("t")
	fd, err := blocking(o).Create(p, "/s/f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	blocking(o).Write(p, fd, 0, blob.Synthetic(11, 0, 1024)) // block cached in mcd0
	blocking(o).Read(p, fd, 0, 1024)                         // ensure it is in the bank
	c.Net.CutLink("gfs-server", "mcd0")                      // server loses the bank...
	blocking(o).Write(p, fd, 0, blob.Synthetic(12, 0, 1024)) // ...so this push/purge fails
	blocking(o).Read(p, fd, 0, 1024)                         // client still hits the stale block
	blocking(o).Close(p, fd)
	c.Env.Run()
	found := false
	for _, v := range o.Violations() {
		if strings.Contains(v, "stale read") {
			found = true
		}
	}
	if !found {
		t.Fatalf("oracle missed the staleness an asymmetric server<->MCD cut creates; violations: %v",
			o.Violations())
	}
}
