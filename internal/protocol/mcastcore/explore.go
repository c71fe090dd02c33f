package mcastcore

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ioa"
	"repro/internal/types"
)

// This file makes the multicast core exhaustively checkable: System
// composes N coordinator nodes with an abstraction of the per-group total
// orders (one global append-only log per group, one read cursor per
// (node, group)) into an ioa.Automaton, so ioa.Explore can enumerate every
// interleaving of submissions, per-group orderings of data and proposals,
// and per-node consumption speeds, asserting the multicast invariant suite
// (system.go) at every distinct reachable state.
//
// The abstraction is exactly the guarantee the DVS/TO stacks provide the
// shell: each group's broadcasts are totally ordered (appends to the
// group's log serialize at the moment the broadcast commits), and every
// member consumes that order from the start, at its own pace. Partitions
// and view changes below the TO layer only pause a cursor — they never
// reorder the log — so exploring all cursor interleavings covers them.

// logItem is one committed entry of a group's total order: a multi-group
// message's data or one group's timestamp proposal.
type logItem struct {
	data    bool
	id      string
	origin  types.ProcID
	dests   []types.GroupID
	payload string
	pgroup  types.GroupID
	ts      uint64
}

// System is the explorable composition: nodes × per-group logs × cursors.
type System struct {
	procs  []types.ProcID
	groups []types.GroupID
	// menu lists the destination sets submissions draw from.
	menu      [][]types.GroupID `ioa:"shared"`
	maxMsgs   int
	nodes     map[types.ProcID]*Node
	logs      map[types.GroupID][]logItem
	cursor    map[types.ProcID]map[types.GroupID]int
	submitted int

	// breakHeadWait is a seeded fault for the invariant-teeth test: after
	// every consume it delivers any finalized pending message immediately,
	// ignoring the head-of-line wait the protocol's safety depends on.
	breakHeadWait bool
}

var _ ioa.Automaton = (*System)(nil)

// NewSystem builds the composition: every process is a member of every
// group, all logs empty, all cursors at zero. menu lists the destination
// sets the environment may submit to (each canonicalized); maxMsgs bounds
// the total submissions.
func NewSystem(procs int, groups int, menu [][]types.GroupID, maxMsgs int) *System {
	s := &System{
		menu:    make([][]types.GroupID, len(menu)),
		maxMsgs: maxMsgs,
		nodes:   make(map[types.ProcID]*Node, procs),
		logs:    make(map[types.GroupID][]logItem, groups),
		cursor:  make(map[types.ProcID]map[types.GroupID]int, procs),
	}
	for i := range menu {
		s.menu[i] = types.DedupGroups(append([]types.GroupID(nil), menu[i]...))
	}
	s.groups = types.RangeGroups(groups)
	for _, g := range s.groups {
		s.logs[g] = nil
	}
	for i := 0; i < procs; i++ {
		p := types.ProcID(i)
		s.procs = append(s.procs, p)
		s.nodes[p] = NewNode(p, s.groups)
		cur := make(map[types.GroupID]int, groups)
		for _, g := range s.groups {
			cur[g] = 0
		}
		s.cursor[p] = cur
	}
	return s
}

// Name implements ioa.Automaton.
func (s *System) Name() string { return "MCAST-SYS" }

// Enabled implements ioa.Automaton: one mc-consume action per (process,
// group) cursor with log entries left to consume.
func (s *System) Enabled() []ioa.Action {
	var acts []ioa.Action
	for _, p := range s.procs {
		for _, g := range s.groups {
			if s.cursor[p][g] < len(s.logs[g]) {
				acts = append(acts, ioa.Action{
					Name:  "mc-consume",
					Kind:  ioa.KindInternal,
					Param: consumeParam(p, g),
				})
			}
		}
	}
	ioa.SortActions(acts)
	return acts
}

func consumeParam(p types.ProcID, g types.GroupID) string {
	return strconv.Itoa(int(p)) + "@" + strconv.Itoa(int(g))
}

func submitParam(p types.ProcID, menuIdx int) string {
	return strconv.Itoa(int(p)) + "#" + strconv.Itoa(menuIdx)
}

// Inputs enumerates the environment's submission inputs: while the
// submission budget lasts, any process may multicast to any destination
// set on the menu.
func (s *System) Inputs() []ioa.Action {
	if s.submitted >= s.maxMsgs {
		return nil
	}
	var acts []ioa.Action
	for _, p := range s.procs {
		for i := range s.menu {
			acts = append(acts, ioa.Action{
				Name:  "mc-submit",
				Kind:  ioa.KindInput,
				Param: submitParam(p, i),
			})
		}
	}
	ioa.SortActions(acts)
	return acts
}

// Env adapts System.Inputs to ioa.Environment.
func Env() ioa.Environment {
	return ioa.EnvironmentFunc(func(a ioa.Automaton) []ioa.Action {
		return a.(*System).Inputs()
	})
}

// Perform implements ioa.Automaton.
func (s *System) Perform(a ioa.Action) error {
	param, _ := a.Param.(string)
	switch a.Name {
	case "mc-submit":
		pStr, iStr, ok := strings.Cut(param, "#")
		if !ok {
			return fmt.Errorf("mcastcore: bad submit param %q", a.Param)
		}
		p, err1 := strconv.Atoi(pStr)
		i, err2 := strconv.Atoi(iStr)
		if err1 != nil || err2 != nil || i < 0 || i >= len(s.menu) {
			return fmt.Errorf("mcastcore: bad submit param %q", a.Param)
		}
		node, ok := s.nodes[types.ProcID(p)]
		if !ok {
			return fmt.Errorf("mcastcore: no node %d", p)
		}
		if s.submitted >= s.maxMsgs {
			return fmt.Errorf("mcastcore: submission budget exhausted")
		}
		s.submitted++
		var out Outbox
		if err := Step(node, EvSubmit{Dests: s.menu[i], Payload: "m"}, &out); err != nil {
			return err
		}
		s.applyEffects(out.Effects)
		return nil
	case "mc-consume":
		pStr, gStr, ok := strings.Cut(param, "@")
		if !ok {
			return fmt.Errorf("mcastcore: bad consume param %q", a.Param)
		}
		p, err1 := strconv.Atoi(pStr)
		g, err2 := strconv.Atoi(gStr)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("mcastcore: bad consume param %q", a.Param)
		}
		pid, gid := types.ProcID(p), types.GroupID(g)
		node, ok := s.nodes[pid]
		if !ok {
			return fmt.Errorf("mcastcore: no node %d", p)
		}
		idx := s.cursor[pid][gid]
		if idx >= len(s.logs[gid]) {
			return fmt.Errorf("mcastcore: consume not enabled for %s", param)
		}
		item := s.logs[gid][idx]
		var ev Event
		if item.data {
			ev = EvData{Group: gid, ID: item.id, Origin: item.origin, Dests: item.dests, Payload: item.payload}
		} else {
			ev = EvProposal{Group: gid, PGroup: item.pgroup, ID: item.id, TS: item.ts}
		}
		var out Outbox
		if err := Step(node, ev, &out); err != nil {
			return err
		}
		s.cursor[pid][gid] = idx + 1
		s.applyEffects(out.Effects)
		if s.breakHeadWait {
			brokenDrain(node, gid)
		}
		return nil
	}
	return fmt.Errorf("mcastcore: unknown action %s", a)
}

// applyEffects commits a macro-step's broadcasts to the group logs. This
// is the total-order abstraction: the broadcast serializes here, at the
// moment the emitting step runs; deliveries stay inside node state.
func (s *System) applyEffects(effects []Effect) {
	for _, fx := range effects {
		switch e := fx.(type) {
		case FxSendData:
			s.logs[e.To] = append(s.logs[e.To], logItem{
				data: true, id: e.ID, origin: e.Origin,
				dests: e.Dests, payload: e.Payload,
			})
		case FxSendProp:
			s.logs[e.To] = append(s.logs[e.To], logItem{
				id: e.ID, pgroup: e.PGroup, ts: e.TS,
			})
		case FxDeliver:
			// Recorded in the delivering node's history; nothing global.
		}
	}
}

// Clone implements ioa.Automaton.
func (s *System) Clone() ioa.Automaton {
	c := &System{
		procs:     append([]types.ProcID(nil), s.procs...),
		groups:    append([]types.GroupID(nil), s.groups...),
		menu:      s.menu, // immutable after NewSystem
		maxMsgs:   s.maxMsgs,
		nodes:     make(map[types.ProcID]*Node, len(s.nodes)),
		logs:      make(map[types.GroupID][]logItem, len(s.logs)),
		cursor:    make(map[types.ProcID]map[types.GroupID]int, len(s.cursor)),
		submitted: s.submitted,

		breakHeadWait: s.breakHeadWait,
	}
	for p, n := range s.nodes {
		c.nodes[p] = n.Clone()
	}
	for g, log := range s.logs {
		c.logs[g] = append([]logItem(nil), log...)
		for i := range log {
			c.logs[g][i].dests = append([]types.GroupID(nil), log[i].dests...)
		}
	}
	for p, cur := range s.cursor {
		cc := make(map[types.GroupID]int, len(cur))
		for g, i := range cur {
			cc[g] = i
		}
		c.cursor[p] = cc
	}
	return c
}

// brokenDrain is the seeded fault's transition: deliver every finalized
// pending message in g, whether or not it is the (ts, id) head.
func brokenDrain(n *Node, g types.GroupID) {
	st := n.gs[g]
	for {
		var victim *pending
		for _, pd := range st.pend {
			if pd.final() && (victim == nil || pd.id < victim.id) {
				victim = pd
			}
		}
		if victim == nil {
			return
		}
		st.deliver(victim)
	}
}

// seqs snapshots every node's per-group delivery history for the
// invariants.
func (s *System) seqs() []DeliverySeq {
	var out []DeliverySeq
	for _, p := range s.procs {
		for _, g := range s.groups {
			out = append(out, DeliverySeq{P: p, G: g, Deliveries: s.nodes[p].Delivered(g)})
		}
	}
	return out
}

// Invariants is the multicast invariant suite lifted to the composed
// system, plus a composition-level clock check: nodes that have consumed
// the same prefix of a group's log hold identical clocks (the determinism
// the proposal mechanism relies on).
func Invariants() []ioa.Invariant {
	wrap := func(name string, check func([]DeliverySeq) error) ioa.Invariant {
		return ioa.Invariant{
			Name: name,
			Check: func(a ioa.Automaton) error {
				return check(a.(*System).seqs())
			},
		}
	}
	return []ioa.Invariant{
		wrap("mcast no-duplicates", CheckNoDuplicates),
		wrap("mcast (ts,id) delivery order", CheckTimestampOrder),
		wrap("mcast per-group agreement", CheckPerGroupAgreement),
		wrap("mcast cross-group partial order", CheckCrossGroupOrder),
		{
			Name: "mcast clock determinism",
			Check: func(a ioa.Automaton) error {
				s := a.(*System)
				for _, g := range s.groups {
					for i := 0; i < len(s.procs); i++ {
						for j := i + 1; j < len(s.procs); j++ {
							p, q := s.procs[i], s.procs[j]
							if s.cursor[p][g] == s.cursor[q][g] && s.nodes[p].Clock(g) != s.nodes[q].Clock(g) {
								return fmt.Errorf("group %v: %v and %v consumed %d entries but clocks differ: %d vs %d",
									g, p, q, s.cursor[p][g], s.nodes[p].Clock(g), s.nodes[q].Clock(g))
							}
						}
					}
				}
				return nil
			},
		},
	}
}

// ExploreConfig bounds the multicast exploration (experiment E14's
// checker-driven companion).
type ExploreConfig struct {
	// Procs is the number of nodes, all members of every group (default 2).
	Procs int
	// Groups is the number of groups (default 2).
	Groups int
	// MaxMsgs bounds the submissions (default 2).
	MaxMsgs int
	// MaxDepth bounds the BFS depth (0 = unlimited: the space is finite).
	MaxDepth int
	// MaxStates caps distinct states (default 1 << 21).
	MaxStates int
	// Parallel is the number of BFS workers (0 = GOMAXPROCS, 1 = serial).
	Parallel int
}

func (c ExploreConfig) fill() ExploreConfig {
	if c.Procs <= 0 {
		c.Procs = 2
	}
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.MaxMsgs <= 0 {
		c.MaxMsgs = 2
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 1 << 21
	}
	return c
}

// Explore exhaustively model-checks the composed multicast system: every
// interleaving of submissions, per-group broadcast orderings, and
// consumption speeds within the bounds, with the full invariant suite
// asserted at every distinct state. The destination menu is every
// multi-group subset of size ≥ 2 plus every singleton, so single-group
// and cross-group traffic interleave.
func Explore(cfg ExploreConfig) (ioa.ExploreResult, error) {
	cfg = cfg.fill()
	var menu [][]types.GroupID
	groups := types.RangeGroups(cfg.Groups)
	for _, g := range groups {
		menu = append(menu, []types.GroupID{g})
	}
	if cfg.Groups >= 2 {
		menu = append(menu, groups)
	}
	sys := NewSystem(cfg.Procs, cfg.Groups, menu, cfg.MaxMsgs)
	return ioa.Explore(sys, Env(), ioa.ExploreConfig{
		MaxStates:  cfg.MaxStates,
		MaxDepth:   cfg.MaxDepth,
		Parallel:   cfg.Parallel,
		Invariants: Invariants(),
	})
}
