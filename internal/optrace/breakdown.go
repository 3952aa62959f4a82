package optrace

import (
	"fmt"
	"io"
	"strings"

	"imca/internal/metrics"
	"imca/internal/sim"
)

// Collector mints operation contexts and folds finished operations into a
// per-layer Breakdown. One collector per measurement series keeps the
// aggregation deterministic: IDs are assigned in scheduler order.
type Collector struct {
	nextID    uint64
	breakdown *Breakdown
	// Last is the most recently finished operation (for per-command
	// reports in interactive tools).
	Last *Op
	// Keep retains every finished operation for export (trace files);
	// off by default since a long run can finish millions of ops.
	Keep bool
	ops  []*Op
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{breakdown: NewBreakdown()}
}

// Breakdown returns the accumulated per-layer aggregation.
func (c *Collector) Breakdown() *Breakdown { return c.breakdown }

// Begin creates a new operation, attaches it to the actor, and returns it.
// Pair with End around exactly the operation being measured.
func (c *Collector) Begin(a *sim.Task, name string) *Op {
	c.nextID++
	op := &Op{ID: c.nextID, Name: name, Start: a.Now()}
	Attach(a, op)
	return op
}

// End detaches the actor's operation, stamps its finish time, folds its
// spans into the breakdown, and returns it (nil if nothing was attached).
// Spans ended by background helpers after End are not aggregated.
func (c *Collector) End(a *sim.Task) *Op {
	op := Detach(a)
	if op == nil {
		return nil
	}
	op.Finish = a.Now()
	c.breakdown.AddOp(op)
	c.Last = op
	if c.Keep {
		c.ops = append(c.ops, op)
	}
	return op
}

// Ops returns the retained operations in completion order (empty unless
// Keep was set before the operations ran).
func (c *Collector) Ops() []*Op { return c.ops }

// Breakdown aggregates operations into per-layer exclusive-time histograms
// plus an end-to-end total — the Fig-6-style latency decomposition.
type Breakdown struct {
	layers map[string]*metrics.Histogram
	total  *metrics.Histogram
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{layers: make(map[string]*metrics.Histogram), total: &metrics.Histogram{}}
}

// AddOp folds one finished operation in: each layer's summed exclusive
// time becomes one observation in that layer's histogram, and the
// operation's end-to-end duration one observation of the total.
func (b *Breakdown) AddOp(op *Op) {
	for _, lt := range op.ByLayer() {
		h := b.layers[lt.Layer]
		if h == nil {
			h = &metrics.Histogram{}
			b.layers[lt.Layer] = h
		}
		h.Observe(lt.Self)
	}
	b.total.Observe(op.Dur())
}

// Count returns the number of operations folded in.
func (b *Breakdown) Count() uint64 { return b.total.Count() }

// Layers returns the observed layer names in canonical stack order.
func (b *Breakdown) Layers() []string {
	names := make([]string, 0, len(b.layers))
	for n := range b.layers {
		names = append(names, n)
	}
	SortLayers(names)
	return names
}

// Layer returns the named layer's exclusive-time histogram (nil if the
// layer was never observed).
func (b *Breakdown) Layer(name string) *metrics.Histogram { return b.layers[name] }

// Total returns the end-to-end duration histogram.
func (b *Breakdown) Total() *metrics.Histogram { return b.total }

// LayerMeanUs returns the named layer's mean contribution per operation
// in microseconds (0 if unobserved). The divisor is the total operation
// count, not the layer's observation count, so layers an operation never
// touched contribute zero to its average and the layer means always sum
// to the end-to-end mean — even over heterogeneous operations (an
// interactive session mixing cache-hit reads with disk-bound writes).
func (b *Breakdown) LayerMeanUs(name string) float64 {
	h := b.layers[name]
	if h == nil || b.total.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(b.total.Count()) / 1e3
}

// TotalMeanUs returns the mean end-to-end time in microseconds.
func (b *Breakdown) TotalMeanUs() float64 { return float64(b.total.Mean()) / 1e3 }

// Merge folds other's observations into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for n, h := range other.layers {
		dst := b.layers[n]
		if dst == nil {
			dst = &metrics.Histogram{}
			b.layers[n] = dst
		}
		dst.Merge(h)
	}
	b.total.Merge(other.total)
}

// Report writes an aligned per-layer table: mean exclusive time, its share
// of the end-to-end mean, and the p50/p95/p99 exclusive times. The layer
// means sum to the end-to-end mean (exclusive times telescope), which the
// footer makes visible.
func (b *Breakdown) Report(w io.Writer) {
	if b.Count() == 0 {
		fmt.Fprintln(w, "(no traced operations)")
		return
	}
	totalUs := b.TotalMeanUs()
	fmt.Fprintf(w, "%-9s  %12s  %7s  %10s  %10s  %10s\n",
		"layer", "mean self", "share", "p50 self", "p95 self", "p99 self")
	fmt.Fprintln(w, strings.Repeat("-", 68))
	var sumUs float64
	for _, name := range b.Layers() {
		h := b.layers[name]
		us := b.LayerMeanUs(name)
		sumUs += us
		share := 0.0
		if totalUs > 0 {
			share = 100 * us / totalUs
		}
		fmt.Fprintf(w, "%-9s  %10.1fµs  %6.1f%%  %10v  %10v  %10v\n",
			name, us, share, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	fmt.Fprintln(w, strings.Repeat("-", 68))
	fmt.Fprintf(w, "%-9s  %10.1fµs  (end-to-end %.1fµs over %d op(s))\n",
		"Σ layers", sumUs, totalUs, b.Count())
}
