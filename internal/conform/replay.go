package conform

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/spec/dvs"
	"repro/internal/spec/vs"
	"repro/internal/types"
)

// Divergence reports one replayed macro-step whose effect sequence differs
// from the recorded one.
type Divergence struct {
	P      types.ProcID
	Layer  string // "dvs", "to" or "mcast"
	Index  int    // record index within that node's layer log
	Window int    // chunk that introduced it (streamed replay); 0 = whole trace
	Event  string // rendered input event
	Want   string // recorded effects, rendered
	Got    string // replayed effects, rendered
}

// String renders the divergence.
func (d Divergence) String() string {
	loc := ""
	if d.Window > 0 {
		loc = fmt.Sprintf(" [window %d]", d.Window)
	}
	return fmt.Sprintf("node %s %s step %d%s (%s): recorded [%s], replayed [%s]",
		d.P, d.Layer, d.Index, loc, d.Event, d.Want, d.Got)
}

// Violation is one failed invariant check over a replayed cut.
type Violation struct {
	Name   string
	Window int // chunk boundary it was detected at (streamed replay); 0 = final cut
	Err    error
}

// String renders the violation.
func (v Violation) String() string {
	if v.Window > 0 {
		return fmt.Sprintf("%s [window %d]: %s", v.Name, v.Window, v.Err)
	}
	return v.Name + ": " + v.Err.Error()
}

// Report is the outcome of replaying a set of node logs.
type Report struct {
	Nodes       int
	DVSSteps    int
	TOSteps     int
	McastSteps  int
	Checks      int  // invariant checks evaluated
	Partial     bool // cross-node checks skipped: the logs do not cover every process the replayed views name
	Malformed   []string
	Divergences []Divergence
	Violations  []Violation
}

// OK reports whether the replay was well-formed, divergence- and
// violation-free.
func (r *Report) OK() bool {
	return len(r.Malformed) == 0 && len(r.Divergences) == 0 && len(r.Violations) == 0
}

// Err returns nil when OK, else an error summarizing the first findings.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var parts []string
	if n := len(r.Malformed); n > 0 {
		parts = append(parts, fmt.Sprintf("%d malformed log(s), first: %s", n, r.Malformed[0]))
	}
	if n := len(r.Divergences); n > 0 {
		parts = append(parts, fmt.Sprintf("%d divergence(s), first: %s", n, r.Divergences[0]))
	}
	if n := len(r.Violations); n > 0 {
		parts = append(parts, fmt.Sprintf("%d invariant violation(s), first: %s", n, r.Violations[0]))
	}
	return fmt.Errorf("conformance: %s", strings.Join(parts, "; "))
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("nodes=%d dvs_steps=%d to_steps=%d checks=%d divergences=%d violations=%d",
		r.Nodes, r.DVSSteps, r.TOSteps, r.Checks, len(r.Divergences), len(r.Violations))
	if r.McastSteps > 0 {
		s += fmt.Sprintf(" mcast_steps=%d", r.McastSteps)
	}
	if len(r.Malformed) > 0 {
		s += fmt.Sprintf(" malformed=%d", len(r.Malformed))
	}
	if r.Partial {
		s += " partial=true"
	}
	return s
}

// check evaluates one named invariant, attributing a violation to window.
func (r *Report) check(window int, name string, f func() error) {
	r.Checks++
	if err := f(); err != nil {
		r.Violations = append(r.Violations, Violation{Name: name, Window: window, Err: err})
	}
}

// validateLogSet reports malformed log-set structure into rep: duplicate
// entries for one process (they would silently overwrite each other in the
// replay maps) and disagreement on the initial view (the refinement mapping
// is anchored at a single v0, so mixed-run logs must be rejected, not
// replayed against an arbitrary log's v0), the filter mode, the group, or
// the node kind. sorted must be ordered by P. Returns false when the set is
// unusable.
func validateLogSet(rep *Report, sorted []NodeMeta) bool {
	ok := true
	malformed := func(format string, args ...any) {
		rep.Malformed = append(rep.Malformed, fmt.Sprintf(format, args...))
		ok = false
	}
	for i := 1; i < len(sorted); i++ {
		m, first := sorted[i], sorted[0]
		if m.P == sorted[i-1].P {
			malformed("duplicate log for process %s", m.P)
		}
		if m.Initial != first.Initial {
			malformed("process %s initial view %s disagrees with process %s initial view %s — logs are not from one run",
				m.P, m.Initial, first.P, first.Initial)
		}
		if m.Static != first.Static {
			malformed("process %s static=%v disagrees with process %s static=%v — one run cannot mix filter modes",
				m.P, m.Static, first.P, first.Static)
		}
		if m.Group != first.Group {
			malformed("process %s group %s disagrees with process %s group %s — each group is an independent run, keep one log set per group",
				m.P, m.Group, first.P, first.Group)
		}
		if (m.McastGroups != nil) != (first.McastGroups != nil) {
			malformed("process %s and process %s are a protocol stack and a multicast coordinator — one log set holds one kind", m.P, first.P)
		}
	}
	return ok
}

// replayNode is the replay-side state of one node: its shadow cores and the
// cross-boundary local-check memory. A stack node has to plus exactly one of
// dvs/stat, per its recorded filter mode; a multicast coordinator has mc
// only.
type replayNode struct {
	meta  NodeMeta
	dvs   *dvscore.Node
	stat  *dvscore.StaticNode
	to    *tocore.Node
	mc    *mcastcore.Node
	local localState
}

func newReplayNode(m NodeMeta) *replayNode {
	n := &replayNode{meta: m}
	switch {
	case m.McastGroups != nil:
		n.mc = mcastcore.NewNode(m.P, m.McastGroups)
		return n
	case m.Static:
		// The static-primary core exactly as the runtime builds it (stack.go):
		// primaries are strict majorities of the initial view's members.
		n.stat = dvscore.NewStaticNode(m.P, m.Initial, m.InP0)
	default:
		n.dvs = dvscore.NewNode(m.P, m.Initial, m.InP0)
	}
	n.to = tocore.NewNode(m.P, m.Initial, m.InP0, false)
	return n
}

// The step functions re-execute one recorded event through the node's
// shadow core — the same Step the runtime shell called. stepDVS drives any
// dvscore.Filter, so one path re-executes dynamic and static logs.

func (n *replayNode) stepDVS(ev dvscore.Event) ([]dvscore.Effect, error) {
	var out dvscore.Outbox
	var f dvscore.Filter = n.dvs
	if n.stat != nil {
		f = n.stat
	}
	err := dvscore.Step(f, ev, n.meta.GC, &out)
	return out.Effects, err
}

func (n *replayNode) stepTO(ev tocore.Event) ([]tocore.Effect, error) {
	var out tocore.Outbox
	err := tocore.Step(n.to, ev, n.meta.Register, &out)
	return out.Effects, err
}

func (n *replayNode) stepMcast(ev mcastcore.Event) ([]mcastcore.Effect, error) {
	var out mcastcore.Outbox
	err := mcastcore.Step(n.mc, ev, &out)
	return out.Effects, err
}

// replayLayer re-steps one node's window of one layer and reports every
// record whose re-derived effects differ from the recorded ones. Effects are
// compared the way they are stored: by their encoding, which is canonical
// (equal effect sequences give equal bytes, nil and empty collections
// alike) and injective, where a rendering for human eyes need not be. A
// step error counts as the replayed outcome: recorded events never error
// (the shells drop rejected events unobserved), so an error is a
// divergence, as is an effect the codec cannot carry.
func replayLayer[E, F any](rep *Report, layer string, window int, p types.ProcID, start int, recs []Record[E, F],
	step func(E) ([]F, error), appendFx func([]byte, F) ([]byte, error)) {
	var want, got []byte
	for i, rec := range recs {
		fx, err := step(rec.Ev)
		var werr, gerr error
		want, werr = appendEffects(want[:0], rec.Fx, appendFx)
		got, gerr = appendEffects(got[:0], fx, appendFx)
		if err = errors.Join(err, werr, gerr); err == nil && bytes.Equal(want, got) {
			continue
		}
		d := Divergence{
			P: p, Layer: layer, Index: start + i, Window: window,
			Event: render(rec.Ev), Want: render(rec.Fx...), Got: render(fx...),
		}
		if err != nil {
			d.Got = "error: " + err.Error()
		}
		rep.Divergences = append(rep.Divergences, d)
	}
}

// render gives events or effects for a divergence report: each one's type
// name and fields, the core types by their String methods.
func render[T any](xs ...T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%T%+v", x, x)
	}
	return strings.Join(parts, "; ")
}

// replay re-steps one window of n's records through its shadow cores.
// Records in a layer the node has no core for are malformed input, not
// something to step.
func (n *replayNode) replay(rep *Report, window int, part *chunkPart) {
	stack := n.mc == nil
	if stack && len(part.Mcast) > 0 || !stack && len(part.DVS)+len(part.TO) > 0 {
		rep.Malformed = append(rep.Malformed,
			fmt.Sprintf("process %s has records in a layer its header entry has no core for", n.meta.P))
		return
	}
	replayLayer(rep, "dvs", window, n.meta.P, part.Start[layerDVS], part.DVS, n.stepDVS, dvsCodec.appendFx)
	replayLayer(rep, "to", window, n.meta.P, part.Start[layerTO], part.TO, n.stepTO, toCodec.appendFx)
	replayLayer(rep, "mcast", window, n.meta.P, part.Start[layerMcast], part.Mcast, n.stepMcast, mcastCodec.appendFx)
	rep.DVSSteps += len(part.DVS)
	rep.TOSteps += len(part.TO)
	rep.McastSteps += len(part.Mcast)
}

// replayer is the one replay engine under every entry point: nodes are
// added from their construction parameters, windows of per-layer records are
// re-stepped through the shadow cores, the per-node projections run at every
// window boundary, and the cross-node suite runs at the boundaries the
// caller vouches for. ReplayStream feeds it the chunks of a trace directory;
// Replay feeds it a whole log set as one window.
type replayer struct {
	rep    *Report
	nodes  []*replayNode // sorted by P
	byP    map[types.ProcID]*replayNode
	static bool // every node runs the static-primary filter
	mcast  bool // every node is a multicast coordinator
}

// newReplayer validates the node set (sorted by P) and builds the shadow
// cores. It returns nil, with the reasons in rep.Malformed, when the set is
// unusable.
func newReplayer(rep *Report, metas []NodeMeta) *replayer {
	rep.Nodes = len(metas)
	if !validateLogSet(rep, metas) {
		return nil
	}
	e := &replayer{rep: rep, byP: make(map[types.ProcID]*replayNode, len(metas))}
	for _, m := range metas {
		n := newReplayNode(m)
		e.nodes = append(e.nodes, n)
		e.byP[m.P] = n
	}
	if len(metas) > 0 {
		e.static, e.mcast = metas[0].Static, metas[0].McastGroups != nil
	}
	return e
}

// window replays one window of records and runs the boundary checks: the
// per-node projections always, the cross-node suite if the boundary is
// marked quiescent. Every part must name a node of the set.
func (e *replayer) window(ch streamChunk) {
	for i := range ch.Parts {
		e.byP[ch.Parts[i].P].replay(e.rep, ch.Seq, &ch.Parts[i])
	}
	for _, n := range e.nodes {
		checkLocal(e.rep, ch.Seq, n)
	}
	if ch.Quiescent {
		e.crossChecks(ch.Seq)
	}
}

// crossChecks runs the cross-node suite of the node set's kind over the
// current cut, attributing violations to window (0 = the final cut).
func (e *replayer) crossChecks(window int) {
	switch {
	case len(e.nodes) == 0:
	case e.mcast:
		checkMcastCut(e.rep, window, e.nodes)
	case e.static:
		// The static suite is sound over any subset of the group (see
		// checkStaticCut), so partial traces are never a concern here.
		checkStaticCut(e.rep, window, e.nodes)
	case !e.cutCovered():
		e.rep.Partial = true
	default:
		checkCut(e.rep, window, e.nodes)
	}
}

// end runs the cross-node suite over the final cut (window 0), where the
// suite's soundness allows: the stack suites need a quiescent cut, which the
// caller vouches for; the multicast suite holds at every consistent cut, so
// the end of a torn multicast trace still gets its prefix checked.
func (e *replayer) end(quiescent bool) {
	if quiescent || e.mcast {
		e.crossChecks(0)
	}
}

// cutCovered reports whether every process named by any replayed view is
// itself replayed. The cross-node formulas dereference the state of every
// view member, so a trace that records only a subset of the group (e.g. a
// single dvsnode's local trace) supports divergence replay and the local
// checks, but not the global suite.
func (e *replayer) cutCovered() bool {
	for _, n := range e.nodes {
		for _, v := range n.dvs.Attempted() {
			for q := v.Members.First(); q >= 0; q = v.Members.Next(q) {
				if _, ok := e.byP[q]; !ok {
					return false
				}
			}
		}
	}
	return true
}

// Replay re-executes the logs through the protocol cores as one window and
// evaluates the cross-node suite over the reconstructed final cut. The logs
// must have been recorded up to a point where all nodes had stopped —
// otherwise the cut is not consistent and the cross-node invariants can
// report false violations. Logs that do not cover every process of the run
// get the per-step and per-node checks only (Partial).
func Replay(logs []NodeLog) *Report {
	rep := &Report{}
	sorted := append([]NodeLog(nil), logs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].P < sorted[j].P })
	metas := make([]NodeMeta, len(sorted))
	ch := streamChunk{Parts: make([]chunkPart, len(sorted))}
	for i, lg := range sorted {
		metas[i] = lg.NodeMeta
		ch.Parts[i] = chunkPart{P: lg.P, DVS: lg.DVS, TO: lg.TO, Mcast: lg.Mcast}
	}
	if e := newReplayer(rep, metas); e != nil {
		e.window(ch)
		e.end(true)
	}
	return rep
}

// checkCut evaluates the paper's cross-node invariants over the cut formed
// by the given replayed dynamic-mode node states, attributing violations to
// window (0 = the final cut of the whole trace). The cut must be quiescent
// at the recorded interface: no core messages or safe indications in flight.
func checkCut(rep *Report, window int, nodes []*replayNode) {
	check := func(name string, f func() error) { rep.check(window, name, f) }
	procs, toNodes := toSystem(nodes)
	dvsNodes := make(map[types.ProcID]*dvscore.Node, len(nodes))
	for _, n := range nodes {
		dvsNodes[n.meta.P] = n.dvs
	}

	// DVS implementation invariants 5.1–5.6 over the replayed node states.
	// With no VS oracle, Created is left nil and the formulas fall back to
	// the views recoverable from the node states (see dvscore.System).
	dsys := dvscore.System{Procs: procs, Nodes: dvsNodes}
	check("DVSIMPL-5.1", dsys.CheckInvariant51)
	check("DVSIMPL-5.2", dsys.CheckInvariant52)
	check("DVSIMPL-5.3", dsys.CheckInvariant53)
	check("DVSIMPL-5.4", dsys.CheckInvariant54)
	check("DVSIMPL-5.5", dsys.CheckInvariant55)
	check("DVSIMPL-5.6", dsys.CheckInvariant56)

	// DVS specification invariants 4.1–4.2 over the abstracted state: the
	// refinement mapping of Figure 4 applied to the quiescent cut (all
	// queues empty, so only views, attempts, registrations and client-cur
	// survive the purge).
	created, attempted := attemptedViews(procs, dvsNodes)
	spec := abstractSpec(procs, nodes[0].meta.Initial, dvsNodes, created, attempted)
	check("DVS-4.1", func() error { return dvs.CheckInvariant41(spec) })
	check("DVS-4.2", func() error { return dvs.CheckInvariant42(spec) })

	// TO invariants 6.1–6.3 plus confirmed-prefix agreement, with the view
	// oracles reconstructed from the replayed DVS states and no in-transit
	// summaries (the cut is quiescent).
	tsys := tocore.System{
		Procs:   procs,
		Nodes:   toNodes,
		Created: created,
		Attempted: func(g types.ViewID) types.ProcSet {
			if s, ok := attempted[g]; ok {
				return s
			}
			return types.NewProcSet()
		},
	}
	check("TOIMPL-6.1", tsys.CheckInvariant61)
	check("TOIMPL-6.2", tsys.CheckInvariant62)
	check("TOIMPL-6.3", tsys.CheckInvariant63)
	check("TOIMPL-confirmed-consistent", tsys.CheckConfirmedConsistent)
}

// checkStaticCut evaluates the invariants a static-primary cut supports.
// The paper's 5.x/4.x formulas quantify over DVS state (attempts,
// registrations, ambiguity) the static filter does not have; what remains
// is the static baseline's own safety argument — every announced primary is
// a quorum of the fixed universe, so any two primaries intersect — plus the
// filter-independent TO agreement on confirmed prefixes. The quorum half is
// per-node and has just run at this boundary (checkLocal's
// STATIC-primary-quorum-local); the pairwise checks here are sound over the
// processes present, which is all a cut can offer.
func checkStaticCut(rep *Report, window int, nodes []*replayNode) {
	rep.check(window, "STATIC-primary-intersect", func() error {
		for i, n := range nodes {
			vp, ok := n.stat.ClientCur()
			if !ok {
				continue
			}
			for _, m := range nodes[:i] {
				if vq, ok := m.stat.ClientCur(); ok && !vp.Members.Intersects(vq.Members) {
					return fmt.Errorf("primaries %s at %s and %s at %s are disjoint", vp, n.meta.P, vq, m.meta.P)
				}
			}
		}
		return nil
	})
	procs, toNodes := toSystem(nodes)
	tsys := tocore.System{Procs: procs, Nodes: toNodes}
	rep.check(window, "TOIMPL-confirmed-consistent", tsys.CheckConfirmedConsistent)
}

// toSystem gives the nodes' TO cores in the shape tocore.System takes.
func toSystem(nodes []*replayNode) ([]types.ProcID, map[types.ProcID]*tocore.Node) {
	procs := make([]types.ProcID, len(nodes))
	toNodes := make(map[types.ProcID]*tocore.Node, len(nodes))
	for i, n := range nodes {
		procs[i] = n.meta.P
		toNodes[n.meta.P] = n.to
	}
	return procs, toNodes
}

// checkMcastCut evaluates the multicast safety suite over the delivery
// histories of the replayed coordinators: per-group agreement, (timestamp,
// id) order, no duplicates, and the cross-group partial order — any two
// groups that both deliver two multi-group messages deliver them in the same
// relative order. The suite is sound over any subset of nodes and groups and
// at every consistent cut: each check quantifies only over the delivery
// sequences present, so a partial or truncated trace can miss a violation
// but never fabricate one.
func checkMcastCut(rep *Report, window int, nodes []*replayNode) {
	var seqs []mcastcore.DeliverySeq
	for _, n := range nodes {
		for _, g := range n.meta.McastGroups {
			seqs = append(seqs, mcastcore.DeliverySeq{P: n.meta.P, G: g, Deliveries: n.mc.Delivered(g)})
		}
	}
	check := func(name string, f func([]mcastcore.DeliverySeq) error) {
		rep.check(window, name, func() error { return f(seqs) })
	}
	check("MCAST-no-duplicates", mcastcore.CheckNoDuplicates)
	check("MCAST-timestamp-order", mcastcore.CheckTimestampOrder)
	check("MCAST-group-agreement", mcastcore.CheckPerGroupAgreement)
	check("MCAST-cross-group-order", mcastcore.CheckCrossGroupOrder)
}

// attemptedViews reconstructs, from the replayed DVS states, the view
// oracles the cross-node formulas quantify over: every attempted view
// (sorted) and, per view id, the processes that attempted it.
func attemptedViews(procs []types.ProcID, nodes map[types.ProcID]*dvscore.Node) ([]types.View, map[types.ViewID]types.ProcSet) {
	byID := make(map[types.ViewID]types.View)
	attempted := make(map[types.ViewID]types.ProcSet)
	for _, p := range procs {
		for _, v := range nodes[p].Attempted() {
			byID[v.ID] = v
			attempted[v.ID] = attempted[v.ID].With(p)
		}
	}
	created := make([]types.View, 0, len(byID))
	for _, v := range byID {
		created = append(created, v)
	}
	types.SortViews(created)
	return created, attempted
}

// abstractSpec applies the refinement mapping F of Figure 4 to the replayed
// cut: created = ∪_p attempted_p, attempted[g] = the attempting processes,
// registered[g] = {p | reg[g]_p}, current-viewid[p] = client-cur.id_p. The
// message components (queues, pending, indices) are empty: the cut is taken
// after the run, when the purged channels hold nothing.
func abstractSpec(procs []types.ProcID, initial types.View, nodes map[types.ProcID]*dvscore.Node,
	created []types.View, attempted map[types.ViewID]types.ProcSet) *dvs.DVS {
	st := dvs.State{
		State: vs.State{Universe: types.NewProcSet(procs...), Initial: initial, Created: created,
			Current: make(map[types.ProcID]types.ViewID)},
		Attempted:  attempted,
		Registered: make(map[types.ViewID]types.ProcSet),
		Drained:    true,
	}
	for _, p := range procs {
		if cc, ok := nodes[p].ClientCur(); ok {
			st.Current[p] = cc.ID
		}
		for _, g := range nodes[p].RegisteredIDs() {
			st.Registered[g] = st.Registered[g].With(p)
		}
	}
	return dvs.FromState(st)
}
