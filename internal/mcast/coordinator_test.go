package mcast

import (
	"testing"

	"repro/internal/tob"
	"repro/internal/types"
)

// TestCoordinatorDeliversInEveryDestination drives the shell without TO
// stacks: each queued control broadcast is handed straight to its group's
// delivery hook, as a one-member group's total order would hand it back.
// A multicast to two groups must come out once in each, so an apply that
// drops a delivery effect fails here instead of as a timeout in a cluster
// test.
func TestCoordinatorDeliversInEveryDestination(t *testing.T) {
	c := New(1, []GroupPort{{G: 0}, {G: 1}})
	if err := c.Submit([]types.GroupID{0, 1}, "both"); err != nil {
		t.Fatal(err)
	}
	got := map[types.GroupID][]string{}
	for steps := 0; len(c.send.queue) > 0; steps++ {
		if steps == 100 {
			t.Fatalf("control traffic did not quiesce: %d frames still queued", len(c.send.queue))
		}
		f := c.send.queue[0]
		c.send.queue = c.send.queue[1:]
		for _, d := range c.Hook(f.g)(tob.Delivery{Payload: f.payload, Origin: 1}) {
			got[f.g] = append(got[f.g], d.Payload)
		}
	}
	for _, g := range []types.GroupID{0, 1} {
		if len(got[g]) != 1 || got[g][0] != "both" {
			t.Errorf("group %s delivered %q, want [\"both\"] once", g, got[g])
		}
	}
	if s := c.Stats(); s.Delivered != 2 {
		t.Errorf("Stats().Delivered = %d, want 2", s.Delivered)
	}
}
