package ioa

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mix64 is the splitmix64 finalizer — a bijection on uint64, so
// counter-derived fingerprints below are pairwise distinct.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestFpSetConcurrentAddStress hammers one fpSet from many goroutines that
// all insert the same fingerprint universe in different orders, so every
// Add races duplicates and every stripe grows several times past its
// initial capacity. Exactly one Add per unique fingerprint may win, Len
// must agree, and a full re-insertion pass must find everything present.
// Run under -race this doubles as the data-race check on the striped table.
func TestFpSetConcurrentAddStress(t *testing.T) {
	const (
		workers = 8
		size    = 50000 // ~780 per stripe: several grows past fpStripeInitCap
	)
	universe := make([]Fp, size)
	for i := 1; i < size; i++ {
		universe[i] = Fp{Hi: mix64(uint64(2 * i)), Lo: mix64(uint64(2*i + 1))}
	}
	// universe[0] stays the zero fingerprint: the out-of-band slot must
	// survive the same race as the open-addressed entries.

	s := newFpSet()
	var added int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the universe at a different coprime stride,
			// so concurrent inserts collide on the same fingerprints in
			// different interleavings.
			stride := 2*w + 1
			for i := 0; i < size; i++ {
				if s.Add(universe[(i*stride+w)%size]) {
					atomic.AddInt64(&added, 1)
				}
			}
		}(w)
	}
	wg.Wait()

	if added != size {
		t.Errorf("winning Adds = %d, want exactly %d (one per unique fingerprint)", added, size)
	}
	if got := s.Len(); got != size {
		t.Errorf("Len() = %d, want %d", got, size)
	}
	for i, fp := range universe {
		if s.Add(fp) {
			t.Fatalf("fingerprint %d (%v) missing after the stress pass", i, fp)
		}
	}
}

// grid is a toy automaton with heavy reconvergence: a vector of three
// counters modulo m, one increment action per coordinate. Many BFS paths
// reach each state, so worker-count-dependent dedup or admission bugs show
// up as count drift.
type grid struct {
	v [3]int
	m int
}

func (g *grid) Name() string { return "grid" }
func (g *grid) Enabled() []Action {
	return []Action{
		{Name: "inc0", Kind: KindInternal},
		{Name: "inc1", Kind: KindInternal},
		{Name: "inc2", Kind: KindInternal},
	}
}
func (g *grid) Perform(a Action) error {
	switch a.Name {
	case "inc0":
		g.v[0] = (g.v[0] + 1) % g.m
	case "inc1":
		g.v[1] = (g.v[1] + 1) % g.m
	case "inc2":
		g.v[2] = (g.v[2] + 1) % g.m
	default:
		return errors.New("unknown")
	}
	return nil
}
func (g *grid) Clone() Automaton { cp := *g; return &cp }

// TestExploreDeterministicAcrossWorkers pins the pipelined BFS contract:
// the full result — state, edge, and depth counts, truncation, and even
// the reported violation — is a function of the model alone, identical at
// every worker count.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	workers := []int{1, 2, 4, 8}

	t.Run("exhaustive", func(t *testing.T) {
		want, err := Explore(&grid{m: 4}, nil, ExploreConfig{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want.States != 64 || want.Edges != 192 {
			t.Fatalf("serial baseline: %d states / %d edges, want 64 / 192", want.States, want.Edges)
		}
		for _, par := range workers[1:] {
			got, err := Explore(&grid{m: 4}, nil, ExploreConfig{Parallel: par})
			if err != nil {
				t.Fatalf("parallel=%d: %v", par, err)
			}
			if got.States != want.States || got.Edges != want.Edges ||
				got.MaxDepth != want.MaxDepth || got.Truncated != want.Truncated {
				t.Errorf("parallel=%d diverged: %+v vs serial %+v", par, got, want)
			}
		}
	})

	t.Run("depth-bounded", func(t *testing.T) {
		var want ExploreResult
		for i, par := range workers {
			got, err := Explore(&grid{m: 6}, nil, ExploreConfig{Parallel: par, MaxDepth: 5})
			if err != nil {
				t.Fatalf("parallel=%d: %v", par, err)
			}
			if !got.Truncated {
				t.Fatalf("parallel=%d: depth bound not reported as truncation", par)
			}
			if i == 0 {
				want = got
				continue
			}
			if got.States != want.States || got.Edges != want.Edges || got.MaxDepth != want.MaxDepth {
				t.Errorf("parallel=%d diverged: %+v vs serial %+v", par, got, want)
			}
		}
	})

	t.Run("violation", func(t *testing.T) {
		// Several states at the same BFS depth violate the invariant; the
		// explorer must report the same (lowest-keyed) one at every width.
		inv := Invariant{Name: "sum<7", Check: func(a Automaton) error {
			g := a.(*grid)
			if g.v[0]+g.v[1]+g.v[2] >= 7 {
				return fmt.Errorf("sum %d", g.v[0]+g.v[1]+g.v[2])
			}
			return nil
		}}
		var want string
		for i, par := range workers {
			_, err := Explore(&grid{m: 8}, nil, ExploreConfig{Parallel: par, Invariants: []Invariant{inv}})
			if err == nil {
				t.Fatalf("parallel=%d: violation not found", par)
			}
			if i == 0 {
				want = err.Error()
				continue
			}
			if err.Error() != want {
				t.Errorf("parallel=%d reported a different violation:\n  got  %s\n  want %s", par, err, want)
			}
		}
	})
}

// pairSym is a toy Symmetric automaton: two counters with a swap symmetry.
// The canonical representative orders the pair; the bad variant returns the
// state unchanged, which AuditSymmetry must reject as soon as an asymmetric
// state is reached.
type pairSym struct {
	a, b int
	m    int
	bad  bool
}

func (p *pairSym) Name() string { return "pairSym" }
func (p *pairSym) Enabled() []Action {
	return []Action{
		{Name: "incA", Kind: KindInternal},
		{Name: "incB", Kind: KindInternal},
	}
}
func (p *pairSym) Perform(act Action) error {
	switch act.Name {
	case "incA":
		p.a = (p.a + 1) % p.m
	case "incB":
		p.b = (p.b + 1) % p.m
	default:
		return errors.New("unknown")
	}
	return nil
}
func (p *pairSym) Clone() Automaton { cp := *p; return &cp }
func (p *pairSym) Canonicalize() Automaton {
	cp := *p
	if !p.bad && cp.a > cp.b {
		cp.a, cp.b = cp.b, cp.a
	}
	return &cp
}
func (p *pairSym) Orbit() []Automaton {
	cp := *p
	sw := *p
	sw.a, sw.b = sw.b, sw.a
	return []Automaton{&cp, &sw}
}

func TestSymmetryReducesPairSpace(t *testing.T) {
	// Plain: all m² states. Reduced: the ordered pairs, m(m+1)/2.
	plain, err := Explore(&pairSym{m: 4}, nil, ExploreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.States != 16 {
		t.Fatalf("plain states = %d, want 16", plain.States)
	}
	red, err := Explore(&pairSym{m: 4}, nil, ExploreConfig{AuditSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.States != 10 {
		t.Errorf("reduced states = %d, want 10 ordered pairs", red.States)
	}
}

// TestAuditSymmetryCatchesNonCanonicalRepresentative is the negative
// control for the audit: a Canonicalize that is not constant on orbits
// (here: the identity) must fail the audit rather than silently produce an
// unsound reduction.
func TestAuditSymmetryCatchesNonCanonicalRepresentative(t *testing.T) {
	_, err := Explore(&pairSym{m: 4, bad: true}, nil, ExploreConfig{AuditSymmetry: true})
	if err == nil {
		t.Fatal("audit accepted a non-canonical representative function")
	}
	if !strings.Contains(err.Error(), "symmetry audit") {
		t.Errorf("unexpected failure shape: %v", err)
	}
	// Without the audit the unsound reduction goes unnoticed — that is
	// exactly the blind spot the audit exists to close.
	if _, err := Explore(&pairSym{m: 4, bad: true}, nil, ExploreConfig{Symmetry: true}); err != nil {
		t.Errorf("plain Symmetry run unexpectedly failed: %v", err)
	}
}
