package dvs_test

import (
	"sync"
	"testing"

	dvs "repro"
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
	for p := e.universe.First(); p >= 0; p = e.universe.Next(p) {
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
		v := types.View{ID: vs.MaxCreatedID().Next(m.First()), Members: m}
		if vs.CreateViewCandidateOK(v) {
			acts = append(acts, ioa.Action{Name: vsspec.ActCreateView, Kind: ioa.KindInternal,
				Param: vsspec.CreateViewParam{View: v}})
		}
	}
	return acts
}

// counts are the size of one explored space.
type counts struct{ states, edges, depth int }

// space is one explored state space of the repo: the audit explores it with
// AuditFingerprints, and it and TestPinnedSpaces hold its counts.
type space struct {
	name string
	a    ioa.Automaton
	env  ioa.Environment
	cfg  ioa.ExploreConfig
	// pin is the space's size. A space is pinned only when its size is a
	// function of the model: a space cut by MaxStates admits its last level
	// in fingerprint order, and an environment that draws its inputs
	// through ioa.StateSeed depends on the fingerprint's value, so either
	// moves with the hash. Those spaces give the reason in sampled instead.
	pin     counts
	sampled string
	// deep, when set, is an E12 space, explored by dvs.CheckExploreDeep in
	// place of a, env and cfg. It is pinned (states and edges) but not
	// audited: rendering every state would take minutes.
	deep *dvs.ExploreDeepConfig
}

const sampledWhy = "cut by MaxStates, and its environment draws inputs through StateSeed"

// spaces is the repo's table of explored spaces. It builds fresh automata
// on every call, so a test may enable symmetry on its copy.
func spaces() []space {
	universe2 := types.RangeProcSet(2)
	v02 := types.InitialView(types.NewProcSet(0, 1))
	views := []types.ProcSet{types.NewProcSet(0), types.NewProcSet(0, 1)}
	toEnv := &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views}
	symmetric := func(a interface{ EnableSymmetry() int }) ioa.Automaton {
		a.EnableSymmetry()
		return a.(ioa.Automaton)
	}
	mcastMenu := [][]types.GroupID{{0}, {1}, {0, 1}}

	return []space{
		{
			name:    "VS",
			a:       vsspec.New(universe2, v02),
			env:     vsspec.NewEnv(1, universe2),
			cfg:     ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8},
			sampled: sampledWhy,
		},
		{
			name:    "DVS",
			a:       dvsspec.New(universe2, v02),
			env:     dvsspec.NewEnv(1, universe2),
			cfg:     ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8},
			sampled: sampledWhy,
		},
		{
			name:    "DVS/symmetry",
			a:       symmetric(dvsspec.New(universe2, v02)),
			env:     dvsspec.NewEnv(1, universe2),
			cfg:     ioa.ExploreConfig{MaxStates: 3000, MaxDepth: 8, Symmetry: true},
			sampled: sampledWhy,
		},
		{
			name: "TO",
			a:    tospec.New(universe2),
			env:  toAuditEnv{universe: universe2},
			cfg:  ioa.ExploreConfig{MaxStates: 3000},
			pin:  counts{66, 116, 8},
		},
		{
			name: "DVS-IMPL",
			a:    dvscore.NewImpl(universe2, v02),
			env:  &dvscore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views},
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 10},
			pin:  counts{1172, 2686, 10},
		},
		{
			// Views only, three of them: what it takes for a node to hold
			// ambiguous views and to receive a registered message.
			name: "DVS-IMPL/views",
			a:    dvscore.NewImpl(universe2, v02),
			env:  &dvscore.BoundedEnv{MaxViews: 3, Views: []types.ProcSet{universe2}},
			cfg:  ioa.ExploreConfig{MaxDepth: 14},
			pin:  counts{4265, 9884, 14},
		},
		{
			name: "DVS-IMPL/symmetry",
			a:    symmetric(dvscore.NewImpl(universe2, v02)),
			env:  &dvscore.BoundedEnv{MaxMsgs: 1, MaxViews: 2, Views: views, AllOrigins: true},
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 10, Symmetry: true},
			pin:  counts{1130, 2559, 10},
		},
		{
			name: "TO-IMPL",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9},
			pin:  counts{473, 896, 9},
		},
		{
			name: "TO-IMPL/symmetry",
			a:    symmetric(tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral})),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9, Symmetry: true},
			pin:  counts{457, 853, 9},
		},
		{
			name: "TO-IMPL/figure5",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral, LiteralFigure5: true}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 9},
			pin:  counts{571, 1077, 9},
		},
		{
			// Truncation in the universe view, then two views of {0}: the
			// second exchange carries a base and a high primary.
			name: "TO-IMPL/universe",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSLiteral, Universe: true}),
			env:  &tocore.BoundedEnv{MaxMsgs: 1, MaxViews: 3, Views: []types.ProcSet{types.NewProcSet(0)}},
			cfg:  ioa.ExploreConfig{},
			pin:  counts{6043, 13472, 26},
		},
		{
			name: "TO-IMPL/drained",
			a:    tocore.NewImpl(universe2, v02, tocore.Config{DVS: tocore.DVSAmendedDrained, Universe: true}),
			env:  toEnv,
			cfg:  ioa.ExploreConfig{MaxStates: 100000, MaxDepth: 12},
			pin:  counts{1846, 4409, 12},
		},
		{
			name: "NAIVE",
			a:    naive.NewImpl(universe2, v02),
			env:  naiveAuditEnv{maxViews: 4, views: []types.ProcSet{types.NewProcSet(0), types.NewProcSet(1), types.NewProcSet(0, 1)}},
			cfg:  ioa.ExploreConfig{MaxStates: 100000},
			pin:  counts{1022, 2577, 15},
		},
		{
			name: "MCAST",
			a:    mcastcore.NewSystem(2, 2, mcastMenu, 2),
			env:  mcastcore.Env(),
			cfg:  ioa.ExploreConfig{},
			pin:  counts{8863, 25210, 18},
		},
		{name: "E12", deep: &dvs.ExploreDeepConfig{}, pin: counts{e12States, e12Edges, 0}},
		{name: "E12/symmetry", deep: &dvs.ExploreDeepConfig{Symmetry: true}, pin: counts{e12SymStates, e12SymEdges, 0}},
	}
}

// explored holds the counts of each space explored in this test binary,
// so that a full run explores each space once: TestFingerprintAudit records
// its audited runs, and TestPinnedSpaces reads them.
var explored sync.Map // space name → counts

// size returns sp's counts, exploring it unless a test has already.
func (sp space) size(t *testing.T) counts {
	if c, ok := explored.Load(sp.name); ok {
		return c.(counts)
	}
	var got counts
	if sp.deep != nil {
		rep, err := dvs.CheckExploreDeep(*sp.deep)
		if err != nil {
			t.Fatal(err)
		}
		got = counts{int(rep.States), int(rep.Steps), 0} // the report has no depth
	} else {
		res, err := ioa.Explore(sp.a, sp.env, sp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got = counts{res.States, res.Edges, res.MaxDepth}
	}
	explored.Store(sp.name, got)
	return got
}

func (c counts) check(t *testing.T, pin counts) {
	if c != pin {
		t.Errorf("explored %d states, %d edges, depth %d; pinned %d, %d, %d",
			c.states, c.edges, c.depth, pin.states, pin.edges, pin.depth)
	}
}

// TestPinnedSpaces holds the size of every pinned space at the default
// worker count: a change to how states are stored, cloned, permuted or
// fingerprinted must leave each one where it is. The table's spaces are
// TestFingerprintAudit's explorations when it has run; only the two E12
// spaces, which it does not audit, are explored here. -short skips them.
func TestPinnedSpaces(t *testing.T) {
	for _, sp := range spaces() {
		t.Run(sp.name, func(t *testing.T) {
			if sp.sampled != "" {
				t.Skip("sampled, not pinned: " + sp.sampled)
			}
			if sp.deep != nil && testing.Short() {
				t.Skip("E12 skipped in -short mode")
			}
			sp.size(t).check(t, sp.pin)
		})
	}
}
