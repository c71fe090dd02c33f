package ioa

import (
	"errors"
	"testing"
)

// ring is a toy automaton with a known state space: a counter modulo m with
// inc/dec actions, 2m edges, m states.
type ring struct{ n, m int }

func (r *ring) Name() string { return "ring" }
func (r *ring) Enabled() []Action {
	return []Action{
		{Name: "inc", Kind: KindInternal},
		{Name: "dec", Kind: KindInternal},
	}
}
func (r *ring) Perform(a Action) error {
	switch a.Name {
	case "inc":
		r.n = (r.n + 1) % r.m
	case "dec":
		r.n = (r.n - 1 + r.m) % r.m
	default:
		return errors.New("unknown")
	}
	return nil
}
func (r *ring) Clone() Automaton { cp := *r; return &cp }

func TestExploreVisitsWholeSpace(t *testing.T) {
	res, err := Explore(&ring{m: 10}, nil, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 10 {
		t.Errorf("states = %d, want 10", res.States)
	}
	if res.Edges != 20 {
		t.Errorf("edges = %d, want 20", res.Edges)
	}
	if res.Truncated {
		t.Error("space should be exhausted")
	}
}

func TestExploreDepthBound(t *testing.T) {
	res, err := Explore(&ring{m: 100}, nil, ExploreConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// From 0 within 3 steps: {0, 1, 2, 3, 97, 98, 99}.
	if res.States != 7 {
		t.Errorf("states = %d, want 7", res.States)
	}
	if !res.Truncated {
		t.Error("depth bound must report truncation")
	}
}

func TestExploreStateBound(t *testing.T) {
	res, err := Explore(&ring{m: 1000}, nil, ExploreConfig{MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 5 || !res.Truncated {
		t.Errorf("res = %+v", res)
	}
}

func TestExploreFindsInvariantViolation(t *testing.T) {
	inv := Invariant{Name: "n<5", Check: func(a Automaton) error {
		if a.(*ring).n >= 5 {
			return errors.New("too big")
		}
		return nil
	}}
	_, err := Explore(&ring{m: 10}, nil, ExploreConfig{Invariants: []Invariant{inv}})
	if err == nil {
		t.Fatal("violation not found")
	}
}

func TestExploreChecksRefinementEdges(t *testing.T) {
	// Identity refinement on the ring holds; a corrupted abstraction fails.
	if _, err := Explore(&ring{m: 6}, nil, ExploreConfig{Refinement: ringRefinement{}}); err != nil {
		t.Fatalf("identity refinement failed: %v", err)
	}
	if _, err := Explore(&ring{m: 6}, nil, ExploreConfig{Refinement: ringRefinement{bad: true}}); err == nil {
		t.Fatal("bad refinement not detected")
	}
}

type ringRefinement struct{ bad bool }

func (r ringRefinement) Abstract(a Automaton) (Automaton, error) {
	cp := *(a.(*ring))
	if r.bad {
		cp.n = (cp.n + 1) % cp.m
	}
	return &cp, nil
}
func (r ringRefinement) SpecInitial() Automaton { return &ring{m: 6} }
func (r ringRefinement) Plan(pre Automaton, act Action) ([]Action, error) {
	return []Action{act}, nil
}
