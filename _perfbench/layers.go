package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// modelLayers are the simulator's layers, named after their packages.
// Each maps imca/internal/<pkg> frames to itself; telemetry also takes the
// metrics, optrace and flight packages.
var modelLayers = []string{
	"sim", "fabric", "memcache", "pagecache", "disk",
	"gluster", "core", "lustre", "workload", "telemetry",
}

// cpuBuckets are the CPU-share buckets: the model layers plus gc
// (background mark workers) and sched (stacks with no layer frame).
var cpuBuckets = append(append([]string{}, modelLayers...), "gc", "sched")

const internalPrefix = "imca/internal/"

// layerOfPkg maps an imca/internal package to its layer. Packages that
// are not layers of their own (blob, bufpool, xrand, cluster, ...) return
// "", so their frames attribute to the layer that called them.
func layerOfPkg(pkg string) string {
	switch pkg {
	case "metrics", "optrace", "flight":
		return "telemetry"
	}
	for _, l := range modelLayers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// framePkg returns the imca/internal package of a pprof frame name such as
// "imca/internal/sim.(*Env).Run (inline)", or "" for any other frame.
func framePkg(frame string) string {
	if !strings.HasPrefix(frame, internalPrefix) {
		return ""
	}
	rest := frame[len(internalPrefix):]
	// A generic instantiation's type arguments may name other packages.
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerOf attributes one stack, innermost frame first: the innermost
// frame of a layer package names the layer; otherwise a background GC
// mark worker is gc and anything else is sched.
func layerOf(stack []string) string {
	for _, f := range stack {
		if l := layerOfPkg(framePkg(f)); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	return "sched"
}

// frameIndent starts a -traces line that holds only a frame: it is
// indented past the 10-column value field.
const frameIndent = "           "

// foldTraces reads `go tool pprof -traces` output and sums each sample's
// value into its stack's layer. CPU values carry a duration unit and fold
// to nanoseconds; count values (alloc_objects) fold as numbers.
func foldTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var (
		value float64
		stack []string
		open  bool
	)
	flush := func() {
		if open && len(stack) > 0 {
			out[layerOf(stack)] += value
		}
		value, stack, open = 0, stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			continue
		}
		if !open || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		// A sample's first line is "<value>   <frame>"; later lines
		// hold one frame each, indented past the value column. Label
		// lines ("bytes:  64B") precede the value line.
		if strings.HasSuffix(fields[0], ":") {
			continue
		}
		if strings.HasPrefix(line, frameIndent) {
			stack = append(stack, strings.TrimSpace(line))
			continue
		}
		v, err := parseValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
		}
		value = v
		stack = append(stack, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0])))
	}
	flush()
	return out, sc.Err()
}

// parseValue reads a -traces sample value: a Go duration ("10ms",
// "1.50s") as nanoseconds, or a plain count.
func parseValue(s string) (float64, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()), nil
}

// shares normalizes folded values over the given buckets; an empty fold
// gives all zeros.
func shares(fold map[string]float64, buckets []string) map[string]float64 {
	var total float64
	for _, b := range buckets {
		total += fold[b]
	}
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		if total > 0 {
			out[b] = fold[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}
