package dvs_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/ioa"
	"repro/internal/naive"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	dvsspec "repro/internal/spec/dvs"
	tospec "repro/internal/spec/to"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
)

// toAuditEnv is a tiny pure environment for exploring the TO specification:
// it offers bcast inputs until two messages are in the system. The count of
// broadcast messages (pending plus ordered) is monotone, so the bound holds
// on every path and the input set is a function of the state only.
type toAuditEnv struct {
	universe types.ProcSet
}

func (e toAuditEnv) Inputs(a ioa.Automaton) []ioa.Action {
	spec, ok := a.(*tospec.TO)
	if !ok {
		return nil
	}
	total := len(spec.Queue())
	for p := range e.universe {
		total += len(spec.Pending(p))
	}
	if total >= 2 {
		return nil
	}
	var acts []ioa.Action
	for _, p := range e.universe.Sorted() {
		acts = append(acts, ioa.Action{Name: tospec.ActBCast, Kind: ioa.KindInput,
			Param: tospec.BCastParam{A: "a", P: p}})
	}
	return acts
}

// naiveAuditEnv proposes each candidate membership as the next view while
// fewer than maxViews views exist. Naive's nodes ignore messages, so views
// are the only input that matters, and they are a function of the state.
type naiveAuditEnv struct {
	maxViews int
	views    []types.ProcSet
}

func (e naiveAuditEnv) Inputs(a ioa.Automaton) []ioa.Action {
	vs := a.(*naive.Impl).VS()
	if vs.CreatedCount() >= e.maxViews {
		return nil
	}
	var acts []ioa.Action
	for _, m := range e.views {
		v := types.View{ID: vs.MaxCreatedID().Next(m.Sorted()[0]), Members: m.Clone()}
		if vs.CreateViewCandidateOK(v) {
			acts = append(acts, ioa.Action{Name: vsspec.ActCreateView, Kind: ioa.KindInternal,
				Param: vsspec.CreateViewParam{View: v}})
		}
	}
	return acts
}

// fieldCoverage records, for every field of every struct type reachable
// from an audited state, whether it was non-zero in some state: a field the
// audit only ever sees at its zero value is one it cannot vouch for.
type fieldCoverage struct {
	mu      sync.Mutex
	nonzero map[coveredField]bool
}

type coveredField struct {
	t reflect.Type
	i int
}

func (f coveredField) String() string { return f.t.String() + "." + f.t.Field(f.i).Name }

func (c *fieldCoverage) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			key := coveredField{v.Type(), i}
			switch f.Kind() {
			case reflect.Map, reflect.Slice:
				c.nonzero[key] = c.nonzero[key] || f.Len() > 0
			default:
				c.nonzero[key] = c.nonzero[key] || !f.IsZero()
			}
			c.walk(f)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			c.walk(it.Key())
			c.walk(it.Value())
		}
	}
}

// neverNonZero lists the fields no audited state sets, each with the reason
// the cases below cannot or need not reach it.
var neverNonZero = map[string]string{
	"mcastcore.System.breakHeadWait": "a seeded fault only mcastcore's own invariant-teeth test sets",
	"tocore.Node.mismatch":           "counts exchanges a node could not align with its representative, which no correct run has",
	"tocore.run.sparse":              "needs a label ahead of a lower seqno of its run; VS delivers each run in order and merge feeds a summary in label order, so no scenario here has a gap (FuzzHistory drives it)",
	"tocore.run.safeSparse":          "the safe marks of such a gap, likewise",
}

// TestFingerprintAudit explores every state type of the repo with
// AuditFingerprints: each state is rendered by reflection, and the
// exploration fails if the fingerprint drops, merges or mis-orders state, if
// a clone differs from or shares storage with its original, if a queued
// state changes after admission, or if Permute loses state. A field every
// audited state leaves at zero is a field the audit never saw: it must be
// listed in neverNonZero with its reason.
func TestFingerprintAudit(t *testing.T) {
	universe2 := types.RangeProcSet(2)
	v02 := types.InitialView(types.NewProcSet(0, 1))
	views := []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)}
	toEnv := &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views}
	symmetric := func(a interface{ EnableSymmetry() int }) ioa.Automaton {
		a.EnableSymmetry()
		return a.(ioa.Automaton)
	}
	mcastMenu := [][]types.GroupID{{0}, {1}, {0, 1}}

	cases := []struct {
		name string
		a    ioa.Automaton
		env  ioa.Environment
		cfg  ioa.ExploreConfig
	}{
		{
			name: "VS",
			a:    vsspec.New(universe2, v02),
			env:  vsspec.NewEnv(1, universe2),
			cfg:  ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8},
		},
		{
			name: "DVS",
			a:    dvsspec.New(universe2, v02),
			env:  dvsspec.NewEnv(1, universe2),
			cfg:  ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8},
		},
		{
			name: "DVS/symmetry",
			a:    symmetric(dvsspec.New(universe2, v02)),
			env:  dvsspec.NewEnv(1, universe2),
			cfg:  ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8, Symmetry: true},
		},
		{
			name: "TO",
			a:    tospec.New(universe2),
			env:  toAuditEnv{universe: universe2},
			cfg:  ioa.ExploreConfig{MaxStates: 3000},
		},
		{
			name: "DVS-IMPL",
			a:    dvscore.NewImpl(universe2, v02),
			env:  &dvscore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views},
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 10},
		},
		{
			// Views only, three of them: what it takes for a node to hold
			// ambiguous views and to receive a registered message.
			name: "DVS-IMPL/views",
			a:    dvscore.NewImpl(universe2, v02),
			env:  &dvscore.BoundedEnv{MaxViews: 3, Views: []types.ProcSet{universe2}},
			cfg:  ioa.ExploreConfig{MaxStates: 3500},
		},
		{
			name: "DVS-IMPL/symmetry",
			a:    symmetric(dvscore.NewImpl(universe2, v02)),
			env:  &dvscore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views, AllOrigins: true},
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 10, Symmetry: true},
		},
		{
			name: "TO-IMPL",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9},
		},
		{
			name: "TO-IMPL/symmetry",
			a:    symmetric(tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral})),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9, Symmetry: true},
		},
		{
			name: "TO-IMPL/figure5",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral, LiteralFigure5: true}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9},
		},
		{
			// Truncation in the universe view, then two views of {0}: the
			// second exchange carries a base and a high primary.
			name: "TO-IMPL/universe",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral, Universe: true}),
			env:  &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 3, Views: []types.ProcSet{types.NewProcSet(0)}},
			cfg:  ioa.ExploreConfig{},
		},
		{
			name: "TO-IMPL/drained",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSAmendedDrained, Universe: true}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 12},
		},
		{
			name: "NAIVE",
			a:    naive.NewImpl(universe2, v02),
			env:  naiveAuditEnv{maxViews: 4, views: []types.ProcSet{types.NewProcSet(0), types.NewProcSet(1), types.NewProcSet(0, 1)}},
			cfg:  ioa.ExploreConfig{MaxStates: 100000},
		},
		{
			name: "MCAST",
			a:    mcastcore.NewSystem(2, 2, mcastMenu, 2),
			env:  mcastcore.Env(),
			cfg:  ioa.ExploreConfig{},
		},
	}
	cov := &fieldCoverage{nonzero: make(map[coveredField]bool)}
	ran := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			cfg := tc.cfg
			cfg.AuditFingerprints = true
			cfg.Invariants = []ioa.Invariant{{Name: "field coverage", Check: func(a ioa.Automaton) error {
				cov.mu.Lock()
				defer cov.mu.Unlock()
				cov.walk(reflect.ValueOf(a))
				return nil
			}}}
			res, err := ioa.Explore(tc.a, tc.env, cfg)
			if err != nil {
				t.Fatalf("after %d states / %d edges: %v", res.States, res.Edges, err)
			}
			if res.States < 50 {
				t.Errorf("audit covered suspiciously few states: %d", res.States)
			}
			t.Logf("audited %d states, %d edges, depth %d, truncated=%v",
				res.States, res.Edges, res.MaxDepth, res.Truncated)
		})
	}
	if ran < len(cases) {
		return // the coverage gate holds over every case, not a -run selection
	}
	var zero []string
	for key, seen := range cov.nonzero {
		field := key.String()
		if _, listed := neverNonZero[field]; !seen && !listed {
			zero = append(zero, field)
		}
		if seen && neverNonZero[field] != "" {
			t.Errorf("%s is listed as never set, but an audited state sets it: drop it from neverNonZero", field)
		}
	}
	sort.Strings(zero)
	for _, field := range zero {
		t.Errorf("no audited state sets %s: reach it in a case above, or list it in neverNonZero with the reason", field)
	}
}
