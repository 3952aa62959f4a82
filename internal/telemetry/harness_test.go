package telemetry

import (
	"strings"
	"testing"

	"imca/internal/sim"
)

// TestRegisterHarness verifies the harness gauges count kernel events
// dispatched after registration and render in dumps.
func TestRegisterHarness(t *testing.T) {
	reg := NewRegistry()
	RegisterHarness(reg)

	env := sim.NewEnv()
	for i := 0; i < 100; i++ {
		env.Defer(sim.Duration(i+1), func() {})
	}
	env.Run()

	v, ok := reg.Value("harness.events_total")
	if !ok {
		t.Fatal("harness.events_total not registered")
	}
	if v < 100 {
		t.Errorf("harness.events_total = %v, want >= 100", v)
	}
	if _, ok := reg.Value("harness.events_per_sec"); !ok {
		t.Fatal("harness.events_per_sec not registered")
	}
	var sb strings.Builder
	reg.Dump(&sb)
	if !strings.Contains(sb.String(), "harness.events_per_sec") {
		t.Errorf("dump missing harness.events_per_sec:\n%s", sb.String())
	}
}
