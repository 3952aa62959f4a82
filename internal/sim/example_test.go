package sim_test

import (
	"fmt"
	"time"

	"imca/internal/sim"
)

// A producer task signals a consumer script through an event; the whole
// exchange takes exactly the modeled durations, not wall time.
func Example() {
	env := sim.NewEnv()
	ready := sim.NewEvent(env)

	env.StartTask("producer", func(t *sim.Task) {
		t.Sleep(3*time.Millisecond, func() { // modeled work
			ready.Trigger("payload")
			t.End()
		})
	})
	consumer := env.ContextTask("consumer")
	var v interface{}
	sim.Await(consumer, func(t *sim.Task, done func()) {
		ready.Wait(t, func(x interface{}) { v = x; done() })
	})
	fmt.Printf("received %q at t=%v\n", v, sim.Duration(consumer.Now()))

	env.Run()
	// Output: received "payload" at t=3ms
}

// A resource models contended hardware: three jobs on a two-unit server.
func ExampleResource() {
	env := sim.NewEnv()
	server := sim.NewResource(env, 2)
	for i := 0; i < 3; i++ {
		i := i
		env.StartTask("job", func(t *sim.Task) {
			server.Use(t, 10*time.Millisecond, func() {
				fmt.Printf("job %d done at %v\n", i, sim.Duration(t.Now()))
				t.End()
			})
		})
	}
	env.Run()
	// Output:
	// job 0 done at 10ms
	// job 1 done at 10ms
	// job 2 done at 20ms
}
