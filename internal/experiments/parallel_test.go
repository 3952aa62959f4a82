package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"imca/internal/telemetry"
)

// rendered is one registry figure as a user sees it.
type rendered struct {
	name string
	out  []byte
}

// renderFigures runs every experiment in the registry with the given
// options and renders everything a user can see — tables, notes,
// breakdowns, telemetry dumps, and the Chrome-trace export of retained
// operations — one byte stream per figure, in registry order.
func renderFigures(t *testing.T, o Options) []rendered {
	t.Helper()
	figs := make([]rendered, 0, len(Registry))
	for _, e := range Registry {
		var buf bytes.Buffer
		res := e.Run(o)
		fmt.Fprintf(&buf, "== %s ==\n", res.Name)
		res.Table.Render(&buf)
		for _, n := range res.Notes {
			fmt.Fprintf(&buf, "note: %s\n", n)
		}
		for _, nb := range res.Breakdowns {
			fmt.Fprintf(&buf, "-- %s --\n", nb.Title)
			nb.Breakdown.Report(&buf)
		}
		for _, d := range res.Telemetry {
			fmt.Fprintf(&buf, "-- %s --\n%s", d.Title, d.Text)
		}
		if len(res.Ops) > 0 {
			if err := telemetry.WriteChromeTrace(&buf, res.Ops); err != nil {
				t.Fatalf("%s: trace export: %v", res.Name, err)
			}
		}
		figs = append(figs, rendered{name: e.Name, out: buf.Bytes()})
	}
	return figs
}

// renderAll is renderFigures joined into one byte stream.
func renderAll(t *testing.T, o Options) []byte {
	t.Helper()
	return joinFigures(renderFigures(t, o))
}

func joinFigures(figs []rendered) []byte {
	var buf bytes.Buffer
	for _, f := range figs {
		buf.Write(f.out)
	}
	return buf.Bytes()
}

// TestParallelByteIdentical is the engine's core guarantee: the full
// figure registry rendered with four workers is byte-for-byte the output
// of the serial run — tables, notes, breakdowns, telemetry dumps, and
// Perfetto trace exports alike. Experiment points share nothing and are
// assembled in declaration order, so host scheduling must be invisible.
func TestParallelByteIdentical(t *testing.T) {
	o := Options{Scale: 4096, Breakdown: true, Telemetry: true, TraceOps: true}
	figs := renderFigures(t, o)
	checkDigests(t, figs)
	serial := joinFigures(figs)
	o.Workers = 4
	par := renderAll(t, o)
	if !bytes.Equal(serial, par) {
		line := 1
		n := len(serial)
		if len(par) < n {
			n = len(par)
		}
		for i := 0; i < n; i++ {
			if serial[i] != par[i] {
				t.Fatalf("parallel output diverges from serial at byte %d (line %d):\nserial: %q\nparallel: %q",
					i, line, excerpt(serial, i), excerpt(par, i))
			}
			if serial[i] == '\n' {
				line++
			}
		}
		t.Fatalf("parallel output is a strict prefix/extension of serial: %d vs %d bytes", len(serial), len(par))
	}
}

// TestHistFlightByteIdentical is the observability counterpart: turning on
// latency histograms and the flight recorder must not move a single byte of
// the legacy surfaces — tables, notes, breakdowns, telemetry dumps, trace
// exports — whether the registry runs serially or with four workers. Hists
// and flight appends are pure memory writes that schedule nothing, so the
// virtual-time history of every run is unchanged.
func TestHistFlightByteIdentical(t *testing.T) {
	base := Options{Scale: 4096, Breakdown: true, Telemetry: true, TraceOps: true}
	plain := renderAll(t, base)

	inst := base
	inst.Hists, inst.Flight = true, true
	diffBytes(t, plain, renderAll(t, inst), "hists+flight serial")

	inst.Workers = 4
	diffBytes(t, plain, renderAll(t, inst), "hists+flight parallel")
}

// diffBytes fails with a located excerpt when two renderings diverge.
func diffBytes(t *testing.T, want, got []byte, label string) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	line := 1
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s output diverges at byte %d (line %d):\nwant: %q\ngot:  %q",
				label, i, line, excerpt(want, i), excerpt(got, i))
		}
		if want[i] == '\n' {
			line++
		}
	}
	t.Fatalf("%s output is a strict prefix/extension: %d vs %d bytes", label, len(want), len(got))
}

func excerpt(b []byte, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}
