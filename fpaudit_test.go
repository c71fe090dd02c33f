package dvs_test

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol/dvscore"
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

// TestFingerprintAudit explores every automaton of the repo in
// dual-fingerprint mode: each visited state is fingerprinted both as the
// 128-bit hash the checkers deduplicate by and as the readable sorted-line
// string, and the exploration fails if hash-equality and string-equality
// ever disagree — either a hash collision (two state texts, one hash) or a
// non-canonical digest (one state text, two hashes, e.g. from map iteration
// order leaking into the fold).
func TestFingerprintAudit(t *testing.T) {
	universe2 := types.RangeProcSet(2)
	v02 := types.InitialView(types.NewProcSet(0, 1))

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
			name: "TO",
			a:    tospec.New(universe2),
			env:  toAuditEnv{universe: universe2},
			cfg:  ioa.ExploreConfig{MaxStates: 3000},
		},
		{
			name: "DVS-IMPL",
			a:    dvscore.NewImpl(universe2, v02),
			env: &dvscore.BoundedEnv{MaxMsgs: 1, MaxViews: 2,
				Views: []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)}},
			cfg: ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 10},
		},
		{
			name: "TO-IMPL",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral}),
			env: &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 2,
				Views: []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)}},
			cfg: ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.AuditFingerprints = true
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
}
