package disk

import (
	"testing"
	"time"

	"imca/internal/sim"
)

func TestSchedDiskFIFOMatchesDisk(t *testing.T) {
	// Sequential accesses through the scheduled disk cost the same as
	// through the plain disk.
	run := func(dev Device, env *sim.Env) sim.Time {
		env.Process("t", func(p *sim.Proc) {
			access(p, dev, 0, 1e6, false)
			access(p, dev, 1e6, 1e6, false)
		})
		return env.Run()
	}
	envA := sim.NewEnv()
	plain := run(New(envA, Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6}), envA)
	envB := sim.NewEnv()
	sched := run(NewSched(envB, Params{SeekTime: 10 * time.Millisecond, TransferRate: 100e6}, FIFO), envB)
	// The plain disk starts at lastEnd=-1 and SchedDisk at headPos=-1:
	// both pay one seek then run sequentially.
	// Same seek count; the scheduled disk's distance model makes the
	// absolute cost differ, but both must be within the same seek budget.
	if sched > plain {
		t.Errorf("FIFO sched disk %v slower than plain disk %v", sched, plain)
	}
}

// submitPattern issues concurrent far-apart requests in a deliberately
// bad arrival order and returns total time and seek count.
func submitPattern(policy Policy) (sim.Duration, uint64) {
	env := sim.NewEnv()
	d := NewSched(env, Params{SeekTime: 5 * time.Millisecond, TransferRate: 1e9}, policy)
	// Addresses arrive interleaved: low, high, low, high...
	addrs := []int64{0, 9e8, 1e6, 9.01e8, 2e6, 9.02e8, 3e6, 9.03e8}
	for i, a := range addrs {
		i, a := i, a
		env.Process("w", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * time.Microsecond) // fix arrival order
			access(p, d, a, 4096, false)
		})
	}
	end := env.Run()
	return sim.Duration(end), d.Seeks
}

func TestElevatorReducesSeeksVsFIFO(t *testing.T) {
	fifoTime, fifoSeeks := submitPattern(FIFO)
	elevTime, elevSeeks := submitPattern(Elevator)
	if elevSeeks > fifoSeeks {
		t.Errorf("elevator seeks = %d, FIFO = %d", elevSeeks, fifoSeeks)
	}
	if elevTime >= fifoTime {
		t.Errorf("elevator time %v not below FIFO %v (short strokes should win)", elevTime, fifoTime)
	}
}

func TestElevatorServesAllRequests(t *testing.T) {
	env := sim.NewEnv()
	d := NewSched(env, Params{SeekTime: time.Millisecond, TransferRate: 1e9}, Elevator)
	done := 0
	for i := 0; i < 20; i++ {
		i := i
		env.Process("w", func(p *sim.Proc) {
			// Mixed directions and overlapping arrivals.
			access(p, d, int64((i*37)%20)*1e7, 4096, i%2 == 0)
			done++
		})
	}
	env.Run()
	if done != 20 {
		t.Fatalf("served %d of 20", done)
	}
	if d.Reads+d.Writes != 20 {
		t.Errorf("accounted %d accesses", d.Reads+d.Writes)
	}
	if len(d.QueueSnapshot()) != 0 {
		t.Error("queue not drained")
	}
}

func TestElevatorSweepOrder(t *testing.T) {
	// Requests below the head position wait for the wrap: C-SCAN sweeps
	// upward first.
	env := sim.NewEnv()
	d := NewSched(env, Params{SeekTime: time.Millisecond, TransferRate: 1e9}, Elevator)
	var order []int64
	// Prime the head to the middle of the range.
	env.Process("prime", func(p *sim.Proc) {
		access(p, d, 5e8, 4096, false)
	})
	for _, a := range []int64{1e8, 7e8, 2e8, 9e8} {
		a := a
		env.Process("w", func(p *sim.Proc) {
			p.Sleep(100 * time.Microsecond) // arrive while prime is being served
			access(p, d, a, 4096, false)
			order = append(order, a)
		})
	}
	env.Run()
	want := []int64{7e8, 9e8, 1e8, 2e8} // up-sweep from 5e8, then wrap
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestSchedDiskInRAIDArrayViaDevice(t *testing.T) {
	// SchedDisk satisfies Device, so callers can use it anywhere a plain
	// disk goes.
	env := sim.NewEnv()
	var dev Device = NewSched(env, HighPoint2008, Elevator)
	env.Process("t", func(p *sim.Proc) {
		access(p, dev, 0, 1<<20, false)
	})
	env.Run()
}
