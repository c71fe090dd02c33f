// Package mcastcore is the pure protocol core of the cross-group atomic
// multicast coordinator: the state machine that gives a sharded deployment
// (N independent DVS/TO groups) a genuine partial order over multi-group
// messages, in the style of Skeen's timestamp-merge algorithm.
//
// The protocol rides on the per-group total orders the DVS/TO stacks
// already provide. A multi-group message m addressed to a destination set D
// is broadcast through the total order of every group in D. When group g
// orders m's data, every member of g deterministically assigns g's
// timestamp proposal ts_g = clock_g + 1 (the per-group Lamport clock all
// members of g evolve identically, because they consume identical total
// orders); the message's origin — a member of every destination group —
// broadcasts the proposal into every other group of D (members of g
// already hold g's proposal). When a group has collected
// proposals from all of D, the final timestamp is the deterministic
// max-merge of the proposals, and m becomes deliverable. Each group
// delivers its pending multi-group messages in (final timestamp, message
// id) order, and only when the head of that order is final — a pending
// message with a smaller effective timestamp might still finalize below the
// head, so delivering early would reorder. Receiving any proposal advances
// the group clock to at least the proposed value, which is what makes later
// proposals in the group exceed every final already fixed there.
//
// The result is the atomic-multicast partial order: any two groups that
// both deliver two multi-group messages deliver them in the same relative
// order (both order by the same global (final, id) key), while disjoint
// groups proceed independently — the property that lets sharded state scale
// where a single atomic broadcast cannot.
//
// Like dvscore and tocore, this package holds no goroutines, channels,
// clocks, or randomness: it is a deterministic value-semantics state
// machine driven exclusively through Step, observable and replayable
// macro-step by macro-step (internal/conform), and explorable by the model
// checker (System in explore.go).
package mcastcore

import (
	"strconv"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Delivered is one multi-group delivery performed by a group: the message
// and the final merged timestamp it was ordered by.
type Delivered struct {
	ID      string
	Origin  types.ProcID
	Payload string
	TS      uint64
}

// pending is one multi-group message a group knows about but has not yet
// delivered. Proposals may arrive before the data (another group's proposal
// can overtake the data broadcast in this group's total order), so dests
// and payload are unknown until haveData.
type pending struct {
	id       string
	origin   types.ProcID
	dests    []types.GroupID // canonical (sorted, deduped); nil until haveData
	payload  string
	haveData bool
	props    map[types.GroupID]uint64
	effTs    uint64 // max of props: the lower bound on the final timestamp
}

// group is the per-group protocol state of a node: the group's Lamport
// clock, the multi-group messages pending in the group, the ids already
// delivered (so late duplicates cannot resurrect a ghost entry), and the
// delivery history the invariants are checked over.
type group struct {
	clock     uint64
	pend      map[string]*pending
	done      map[string]bool
	delivered []Delivered
}

// Node is the multicast coordinator state of one process across all the
// groups it participates in. All state transitions go through Step.
type Node struct {
	p      types.ProcID
	groups []types.GroupID // sorted
	nextID uint64
	gs     map[types.GroupID]*group
}

// NewNode builds the coordinator state for process p participating in the
// given groups (sorted and deduplicated internally).
func NewNode(p types.ProcID, groups []types.GroupID) *Node {
	gs := types.DedupGroups(append([]types.GroupID(nil), groups...))
	n := &Node{p: p, groups: gs, gs: make(map[types.GroupID]*group, len(gs))}
	for _, g := range gs {
		n.gs[g] = &group{pend: make(map[string]*pending), done: make(map[string]bool)}
	}
	return n
}

// P returns the process id.
func (n *Node) P() types.ProcID { return n.p }

// Groups returns the node's groups (shared, sorted; read-only).
func (n *Node) Groups() []types.GroupID { return n.groups }

// Clock returns group g's Lamport clock at this node.
func (n *Node) Clock(g types.GroupID) uint64 {
	if st, ok := n.gs[g]; ok {
		return st.clock
	}
	return 0
}

// PendingCount returns the number of multi-group messages pending in g.
func (n *Node) PendingCount(g types.GroupID) int {
	if st, ok := n.gs[g]; ok {
		return len(st.pend)
	}
	return 0
}

// Delivered returns a copy of group g's delivery history, in delivery
// order.
func (n *Node) Delivered(g types.GroupID) []Delivered {
	st, ok := n.gs[g]
	if !ok {
		return nil
	}
	return append([]Delivered(nil), st.delivered...)
}

// DeliveredCount returns the number of multi-group messages g delivered.
func (n *Node) DeliveredCount(g types.GroupID) int {
	if st, ok := n.gs[g]; ok {
		return len(st.delivered)
	}
	return 0
}

// Clone returns an independent deep copy.
func (n *Node) Clone() *Node {
	c := &Node{
		p:      n.p,
		groups: append([]types.GroupID(nil), n.groups...),
		nextID: n.nextID,
		gs:     make(map[types.GroupID]*group, len(n.gs)),
	}
	for gid, st := range n.gs {
		cs := &group{
			clock:     st.clock,
			pend:      make(map[string]*pending, len(st.pend)),
			done:      make(map[string]bool, len(st.done)),
			delivered: append([]Delivered(nil), st.delivered...),
		}
		for id, pd := range st.pend {
			cp := &pending{
				id:       pd.id,
				origin:   pd.origin,
				dests:    append([]types.GroupID(nil), pd.dests...),
				payload:  pd.payload,
				haveData: pd.haveData,
				props:    make(map[types.GroupID]uint64, len(pd.props)),
				effTs:    pd.effTs,
			}
			for g, ts := range pd.props {
				cp.props[g] = ts
			}
			cs.pend[id] = cp
		}
		for id := range st.done {
			cs.done[id] = true
		}
		c.gs[gid] = cs
	}
	return c
}

// AddFingerprint appends the node's state to a composite fingerprint.
// Every field that can differ between states is written.
func (n *Node) AddFingerprint(f *ioa.Fingerprinter) {
	f.SetPrefix("mc" + strconv.Itoa(int(n.p)) + ".")
	f.AddInt("id", int(n.nextID))
	for _, gid := range n.groups {
		st := n.gs[gid]
		pre := "g" + strconv.Itoa(int(gid)) + "."
		f.SetPrefix("mc" + strconv.Itoa(int(n.p)) + "." + pre)
		f.AddInt("clock", int(st.clock))
		if len(st.pend) > 0 {
			ids := make([]string, 0, len(st.pend))
			for id := range st.pend {
				ids = append(ids, id)
			}
			sortStrings(ids)
			f.Begin("pend")
			f.Byte('=')
			for _, id := range ids {
				pd := st.pend[id]
				f.Str(pd.id)
				f.Byte(':')
				f.Int(int(pd.origin))
				f.Byte(':')
				if pd.haveData {
					f.Byte('d')
					f.Str(pd.payload)
					for _, d := range pd.dests {
						f.Byte(',')
						f.Int(int(d))
					}
				}
				f.Byte(':')
				f.Uint(pd.effTs)
				f.Byte('<')
				for _, d := range sortedPropGroups(pd.props) {
					f.Int(int(d))
					f.Byte('>')
					f.Uint(pd.props[d])
					f.Byte(';')
				}
				f.Byte('|')
			}
			f.End()
		}
		if len(st.done) > 0 {
			ids := make([]string, 0, len(st.done))
			for id := range st.done {
				ids = append(ids, id)
			}
			sortStrings(ids)
			f.Begin("done")
			f.Byte('=')
			for _, id := range ids {
				f.Str(id)
				f.Byte('|')
			}
			f.End()
		}
		if len(st.delivered) > 0 {
			f.Begin("dlv")
			f.Byte('=')
			for _, d := range st.delivered {
				f.Str(d.ID)
				f.Byte(':')
				f.Int(int(d.Origin))
				f.Byte(':')
				f.Str(d.Payload)
				f.Byte(':')
				f.Uint(d.TS)
				f.Byte('|')
			}
			f.End()
		}
	}
	f.SetPrefix("")
}

// sortStrings is an allocation-free insertion sort for the small id slices
// fingerprinting walks.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortedPropGroups(props map[types.GroupID]uint64) []types.GroupID {
	out := make([]types.GroupID, 0, len(props))
	for g := range props {
		out = append(out, g)
	}
	types.SortGroups(out)
	return out
}

// propose records group g's proposal and keeps effTs, the message's current
// lower bound on its final timestamp: the maximum proposal collected so far.
// The final timestamp is the max over all destination groups, so effTs only
// ever grows toward it.
func (pd *pending) propose(g types.GroupID, ts uint64) {
	pd.props[g] = ts
	pd.effTs = max(pd.effTs, ts)
}

// final reports whether the message's timestamp is decided in this group:
// the data has been ordered here (so the destination set is known) and a
// proposal from every destination group has been collected.
func (pd *pending) final() bool {
	return pd.haveData && len(pd.props) == len(pd.dests)
}

// onSubmit is the mc-submit action: it assigns the next locally unique
// message id.
func (n *Node) onSubmit() string {
	id := strconv.Itoa(int(n.p)) + "." + strconv.FormatUint(n.nextID, 10)
	n.nextID++
	return id
}

// onData is the mc-data action: it applies the ordering of m's data in group g: assign g's proposal
// (clock+1) and remember the message. Duplicates and already-delivered ids
// are ignored. It reports whether this was the first data ordering (the
// origin then disseminates g's proposal).
func (n *Node) onData(g types.GroupID, id string, origin types.ProcID, dests []types.GroupID, payload string) bool {
	st := n.gs[g]
	if st.done[id] {
		return false
	}
	pd, ok := st.pend[id]
	if ok && pd.haveData {
		return false
	}
	if !ok {
		pd = &pending{id: id, props: make(map[types.GroupID]uint64, len(dests))}
		st.pend[id] = pd
	}
	pd.origin = origin
	pd.dests = dests
	pd.payload = payload
	pd.haveData = true
	st.clock++
	pd.propose(g, st.clock)
	return true
}

// onProposal is the mc-proposal action: it applies a proposal from group pg for message id, carried by
// group g's total order. The group clock advances to at least the proposed
// value (the Lamport bump that keeps later finals above delivered ones);
// duplicate proposals are idempotent.
func (n *Node) onProposal(g types.GroupID, pg types.GroupID, id string, ts uint64) {
	st := n.gs[g]
	if ts > st.clock {
		st.clock = ts
	}
	if st.done[id] {
		return
	}
	pd, ok := st.pend[id]
	if !ok {
		pd = &pending{id: id, props: make(map[types.GroupID]uint64, 2)}
		st.pend[id] = pd
	}
	if _, have := pd.props[pg]; !have {
		pd.propose(pg, ts)
	}
}

// deliverable returns the next message group g must deliver, or nil: the
// pending message minimal in (effective timestamp, id) order, and only if
// it is final — a non-final head could still finalize below everything
// behind it, so nothing may be delivered past it.
func (st *group) deliverable() *pending {
	var best *pending
	var bestTs uint64
	for _, pd := range st.pend {
		ts := pd.effTs
		if best == nil || ts < bestTs || (ts == bestTs && pd.id < best.id) {
			best, bestTs = pd, ts
		}
	}
	if best == nil || !best.final() {
		return nil
	}
	return best
}

// deliver removes pd from the pending set and appends it to the delivery
// history.
func (st *group) deliver(pd *pending) Delivered {
	d := Delivered{ID: pd.id, Origin: pd.origin, Payload: pd.payload, TS: pd.effTs}
	delete(st.pend, pd.id)
	st.done[pd.id] = true
	st.delivered = append(st.delivered, d)
	return d
}
