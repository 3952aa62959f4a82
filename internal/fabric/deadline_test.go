package fabric

import (
	"errors"
	"testing"
	"time"

	"imca/internal/optrace"
	"imca/internal/sim"
)

// TestCallDeadlineAtEntry: a deadline already in the past fails the call
// immediately, without advancing virtual time or touching the wire.
func TestCallDeadlineAtEntry(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	col := optrace.NewCollector()
	p := env.ContextTask("client")
	op := col.Begin(p, "rpc")
	op.SetDeadline(p.Now()) // now >= deadline: no budget at all
	start := p.Now()
	resp, err := syncCall(p, a, b, "echo", Bytes(0))
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if resp != nil {
		t.Errorf("resp = %v, want nil", resp)
	}
	if p.Now() != start {
		t.Errorf("expired-at-entry call advanced time by %v", p.Now().Sub(start))
	}
	col.End(p)
	env.Run()
	if a.TxMsgs != 0 {
		t.Errorf("expired-at-entry call sent %d messages", a.TxMsgs)
	}
}

// TestCallDeadlineMidCall: a deadline shorter than the RPC's round trip
// expires inside Call; the caller resumes exactly at the deadline with
// ErrDeadline, while the handler still runs to completion behind it.
func TestCallDeadlineMidCall(t *testing.T) {
	env := sim.NewEnv()
	net := NewNetwork(env, IPoIB)
	a := net.NewNode("a", 8)
	b := net.NewNode("b", 8)
	handled := false
	b.Handle("slow", func(t *sim.Task, from *Node, req Msg, respond func(Msg)) {
		t.Sleep(time.Millisecond, func() {
			handled = true
			respond(req)
		})
	})
	col := optrace.NewCollector()
	const budget = 100 * time.Microsecond
	p := env.ContextTask("client")
	op := col.Begin(p, "rpc")
	deadline := p.Now().Add(budget)
	op.SetDeadline(deadline)
	resp, err := syncCall(p, a, b, "slow", Bytes(0))
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if resp != nil {
		t.Errorf("resp = %v, want nil", resp)
	}
	if p.Now() != deadline {
		t.Errorf("caller resumed at %v, want the deadline %v", p.Now(), deadline)
	}
	col.End(p)
	env.Run()
	if !handled {
		t.Error("handler did not run to completion after the caller abandoned")
	}
	op = col.Last
	if op == nil {
		t.Fatal("no traced op")
	}
	var netSpan *optrace.Span
	for _, s := range op.Spans {
		if s.Layer == optrace.LayerNet && s.Name == "slow" {
			netSpan = s
		}
	}
	if netSpan == nil {
		t.Fatal("no net span for the abandoned call")
	}
	if netSpan.Attr("deadline") != "expired" {
		t.Errorf("net span not marked expired: %+v", netSpan.Attrs)
	}
}

// TestCallSpans: a traced call records a net span whose duration equals
// the caller-observed RPC time, with the request segment nested inside.
func TestCallSpans(t *testing.T) {
	env, a, b := newPair(t, IPoIB)
	col := optrace.NewCollector()
	p := env.ContextTask("client")
	col.Begin(p, "rpc")
	start := p.Now()
	if _, err := syncCall(p, a, b, "echo", Bytes(64)); err != nil {
		t.Errorf("Call: %v", err)
	}
	rtt := p.Now().Sub(start)
	op := col.End(p)
	var outer, request *optrace.Span
	for _, s := range op.Spans {
		switch s.Name {
		case "echo":
			outer = s
		case "request":
			request = s
		}
	}
	if outer == nil || request == nil {
		t.Fatalf("missing spans: outer=%v request=%v", outer, request)
	}
	if outer.Dur() != rtt {
		t.Errorf("net span %v != observed RTT %v", outer.Dur(), rtt)
	}
	if request.Depth() != outer.Depth()+1 {
		t.Errorf("request segment not nested under the call span")
	}
	if outer.Attr("to") != "b" {
		t.Errorf("net span to=%q, want b", outer.Attr("to"))
	}
	env.Run()
}

// TestCallUntracedUnchanged: without an operation context attached, the
// RPC's virtual timing must be identical to a traced one — tracing costs
// zero virtual time.
func TestCallUntracedUnchanged(t *testing.T) {
	rtt := func(traced bool) sim.Duration {
		env, a, b := newPair(t, IPoIB)
		col := optrace.NewCollector()
		var d sim.Duration
		p := env.ContextTask("client")
		if traced {
			col.Begin(p, "rpc")
		}
		start := p.Now()
		syncCall(p, a, b, "echo", Bytes(4096))
		d = p.Now().Sub(start)
		if traced {
			col.End(p)
		}
		env.Run()
		return d
	}
	if plain, traced := rtt(false), rtt(true); plain != traced {
		t.Errorf("tracing changed RPC time: untraced %v, traced %v", plain, traced)
	}
}
