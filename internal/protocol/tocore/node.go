// Package tocore is the deterministic, side-effect-free protocol core of
// the application algorithm of Section 6: the DVS-TO-TO_p automaton of
// Figure 5 (a variant of the totally-ordered broadcast algorithm of
// Amir/Dolev/Keidar/Melliar-Smith/Moser adapted to the dynamic view
// service) as a pure state machine. The same code is driven by two
// consumers — the exhaustive checker (Impl, in this package, composes it
// with the DVS specification into TO-IMPL and explores it against
// Invariants 6.1–6.3) and the live runtime (internal/tob translates DVS
// upcalls into Events and applies the Effects that Step emits). The System
// invariant formulas are likewise shared with the trace-conformance
// replayer (internal/conform).
//
// The fine-grained transitions (one per Figure 5 action) are unexported:
// the paper defines TO-IMPL as a composition of these automata, so the
// composition lives here and fires them one at a time, and everything
// outside the package drives a node through Step. What is exported on Node
// is the read-only accessor roster, pinned by TestExportedSurface.
//
// Figure 5's DVS-SAFE(summary) handler marks the exchanged labels safe as
// soon as safe indications for all members' summaries have arrived. Over the
// literal DVS specification this can only happen after the view has been
// established locally (the literal dvs-safe precondition implies the member
// itself has client-delivered the summaries first). Over the amended DVS
// specification — which reflects what the Figure 3 implementation actually
// guarantees — safe indications may overtake client delivery, so the printed
// handler can fire with a partial gotstate. Nodes therefore support two
// modes: Literal (exactly Figure 5) and the default repaired mode, which
// defers marking the exchange safe until the view has been established.
//
// Figure 5 keeps content, order and safe-labels forever. A node that has been
// told the process universe (EvUniverse) drops the stable prefix instead:
// confirm_p fired while current.set is the whole universe (or such a view's
// exchange become safe) means every process's client attempted this view and
// holds — or, by the drain rule the DVS layer provides, will hold before its
// next dvs-newview — the identical order prefix with its content, so no state
// exchange will ever need p's copy. p keeps the prefix's length and chain digest (types.Suffix), sends
// those in its summaries, and at establishment splices the representative's
// suffix onto its own. A node never told the universe is Figure 5 as printed.
package tocore

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/types"
)

// Status values of a DVS-TO-TO node.
type Status int

// Status constants (Figure 5: normal, send, collect).
const (
	StatusNormal Status = iota + 1
	StatusSend
	StatusCollect
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNormal:
		return "normal"
	case StatusSend:
		return "send"
	case StatusCollect:
		return "collect"
	default:
		return "status(" + strconv.Itoa(int(s)) + ")"
	}
}

// LabelMsg is a ⟨l, a⟩ message in C = L × A.
type LabelMsg struct {
	L types.Label
	A string
}

// MsgKey implements types.Msg.
func (m LabelMsg) MsgKey() string { return "lbl:" + m.L.String() + "=" + m.A }

// EqualMsg implements types.Msg.
func (m LabelMsg) EqualMsg(o types.Msg) bool {
	om, ok := o.(LabelMsg)
	return ok && om == m
}

// SummaryMsg carries a state summary x ∈ S.
type SummaryMsg struct {
	X types.Summary
}

// MsgKey implements types.Msg.
func (m SummaryMsg) MsgKey() string { return "sum:" + m.X.String() }

// EqualMsg implements types.Msg.
func (m SummaryMsg) EqualMsg(o types.Msg) bool {
	om, ok := o.(SummaryMsg)
	return ok && m.X.Equal(om.X)
}

var (
	_ types.Msg = LabelMsg{}
	_ types.Msg = SummaryMsg{}
)

// Node is the state of the DVS-TO-TO_p automaton of Figure 5.
type Node struct {
	p       types.ProcID
	literal bool // exactly Figure 5's safe-exchange handling

	current     types.View
	currentOK   bool
	status      Status
	hist        history // content and safe-labels
	nextSeqno   int
	buffer      []types.Label
	order       []types.Label // from position base on; nextConfirm and nextReport index the whole
	nextConfirm int
	nextReport  int
	// Truncation: whole caches current.set = universe (never, while universe is
	// nil); stable is the highest nextconfirm-1 reached in such a view, and
	// order, hist and buildOrder hold nothing below base = min(stable,
	// nextreport-1), of which digest is the chain. mismatch counts exchanges
	// whose representative this node could not align with.
	universe    types.ProcSet
	whole       bool
	stable      int
	base        int
	digest      uint64
	mismatch    int
	highPrimary types.ViewID
	gotstate    types.GotState
	safeExch    types.ProcSet
	registered  map[types.ViewID]bool
	delay       []string
	established map[types.ViewID]bool

	// buildOrder is a history variable: the order computed when the view
	// with the given id was established at this node (used by Invariant 6.3).
	// boEnd is the highest Len among its entries: past it there is nothing
	// left in any of them to drop.
	buildOrder map[types.ViewID]types.Suffix
	boEnd      int
}

// NewNode returns DVS-TO-TO_p in its initial state; literal selects the
// exact Figure 5 safe-exchange handling.
func NewNode(p types.ProcID, initial types.View, inP0, literal bool) *Node {
	n := &Node{
		p:           p,
		literal:     literal,
		status:      StatusNormal,
		hist:        make(history),
		nextSeqno:   1,
		nextConfirm: 1,
		nextReport:  1,
		gotstate:    make(types.GotState),
		safeExch:    types.NewProcSet(),
		registered:  make(map[types.ViewID]bool),
		established: make(map[types.ViewID]bool),
		buildOrder:  make(map[types.ViewID]types.Suffix),
	}
	if inP0 {
		n.current, n.currentOK = initial.Clone(), true
		n.registered[types.ViewIDZero] = true
	}
	return n
}

// P returns the process id.
func (n *Node) P() types.ProcID { return n.p }

// Current returns the current view; ok is false for ⊥.
func (n *Node) Current() (types.View, bool) { return n.current, n.currentOK }

// Status returns the node status.
func (n *Node) Status() Status { return n.status }

// Established reports whether the view with id g has been established here.
func (n *Node) Established(g types.ViewID) bool { return n.established[g] }

// Order returns the current tentative order from position Base on.
func (n *Node) Order() []types.Label { return types.CloneSeq(n.order) }

// Base returns how many labels of the order have been dropped.
func (n *Node) Base() int { return n.base }

// Retained returns how many labels of the order are held.
func (n *Node) Retained() int { return len(n.order) }

// BaseMismatches returns how many state exchanges named a representative
// whose base this node could not align its own order with, and so were left
// un-established. No correct execution has one.
func (n *Node) BaseMismatches() int { return n.mismatch }

// GotState returns a copy of the recovery state summaries received.
func (n *Node) GotState() types.GotState { return n.gotstate.Clone() }

// NextReport returns nextreport.
func (n *Node) NextReport() int { return n.nextReport }

// NextConfirm returns nextconfirm.
func (n *Node) NextConfirm() int { return n.nextConfirm }

// Summary returns ⟨content, order, nextconfirm, highprimary⟩, the summary
// sent during recovery.
func (n *Node) Summary() types.Summary {
	return types.Summary{
		Con:    n.hist.export(),
		Base:   n.base,
		Digest: n.digest,
		Ord:    types.CloneSeq(n.order),
		Next:   n.nextConfirm,
		High:   n.highPrimary,
	}
}

func (n *Node) suffix() types.Suffix {
	return types.Suffix{Base: n.base, Digest: n.digest, Ord: n.order}
}

// --- Input handlers ---

// onBCast handles input bcast(a)_p: buffer into delay.
func (n *Node) onBCast(a string) { n.delay = append(n.delay, a) }

// onUniverse records the process universe, which turns truncation on.
func (n *Node) onUniverse(u types.ProcSet) {
	n.universe = u.Clone()
	n.whole = n.currentOK && n.current.Members.Equal(u)
}

// onDVSNewView handles input dvs-newview(v)_p.
func (n *Node) onDVSNewView(v types.View) {
	n.current, n.currentOK = v.Clone(), true
	n.whole = n.universe != nil && v.Members.Equal(n.universe)
	n.nextSeqno = 1
	n.buffer = nil
	n.gotstate = make(types.GotState)
	n.safeExch = types.NewProcSet()
	n.hist.clearSafe()
	n.status = StatusSend
}

// onDVSGpRcv handles input dvs-gprcv(m)_{q,p} by case analysis on m.
func (n *Node) onDVSGpRcv(m types.Msg, q types.ProcID) error {
	switch msg := m.(type) {
	case LabelMsg:
		n.hist.put(msg.L, msg.A)
		n.order = append(grow(n.order), msg.L)
		return nil
	case SummaryMsg:
		n.hist.merge(msg.X.Con)
		n.gotstate[q] = msg.X.Clone()
		if n.currentOK && n.status == StatusCollect && gotAll(n.gotstate, n.current.Members) {
			n.establish()
		}
		return nil
	default:
		return fmt.Errorf("to node %s: unexpected message %s", n.p, m.MsgKey())
	}
}

// grow gives a full slice shorter than 64 elements room for 64 more; longer
// ones are append's business. Truncation consumes a slice from the front, so
// one that holds a single element at a time runs out of capacity with length
// 0, from which append would grow it by one, every time.
func grow[T any](s []T) []T {
	if len(s) < cap(s) || len(s) >= 64 {
		return s
	}
	return slices.Grow(s, 64)
}

func gotAll(gs types.GotState, members types.ProcSet) bool {
	if len(gs) != members.Len() {
		return false
	}
	for q := range members {
		if _, ok := gs[q]; !ok {
			return false
		}
	}
	return true
}

// establish processes the complete state exchange in one atomic step. The
// representative's order and this node's are cut at the higher of their two
// bases, where their digests must agree: below it the node keeps what it
// holds, from it on the order is the representative's. A representative the
// node cannot be aligned with — its base beyond this order's end or this
// base beyond its end, or a different prefix below — is counted and the view
// left un-established.
func (n *Node) establish() {
	full := n.gotstate.FullOrder()
	at := max(full.Base, n.base)
	mine, ok1 := n.suffix().From(at)
	rep, ok2 := full.From(at)
	if !ok1 || !ok2 || mine.Digest != rep.Digest {
		n.mismatch++
		return
	}
	n.nextConfirm = n.gotstate.MaxNextConfirm()
	n.order = append(n.order[:at-n.base:at-n.base], rep.Ord...)
	n.highPrimary = n.current.ID
	n.status = StatusNormal
	n.established[n.current.ID] = true
	n.buildOrder[n.current.ID] = types.Suffix{Base: n.base, Digest: n.digest, Ord: types.CloneSeq(n.order)}
	n.boEnd = max(n.boEnd, n.base+len(n.order))
	if !n.literal {
		n.maybeMarkExchangeSafe()
	}
}

// onDVSSafe handles input dvs-safe(m)_{q,p} by case analysis on m.
func (n *Node) onDVSSafe(m types.Msg, q types.ProcID) error {
	switch msg := m.(type) {
	case LabelMsg:
		n.hist.markSafe(msg.L)
		return nil
	case SummaryMsg:
		n.safeExch.Add(q)
		if n.literal {
			// Figure 5 exactly: mark as soon as safe-exch covers the view,
			// regardless of whether the exchange has completed locally.
			if n.currentOK && n.safeExch.Equal(n.current.Members) {
				for _, l := range n.gotstate.FullOrder().Ord {
					n.hist.markSafe(l)
				}
			}
			return nil
		}
		if n.maybeMarkExchangeSafe() && n.whole {
			// Every endpoint holds every summary of a view that is the whole
			// universe, so every client establishes this very order: what is
			// confirmed in it is stable without waiting for the next confirm_p.
			n.stable = n.nextConfirm - 1
			n.truncate()
		}
		return nil
	default:
		return fmt.Errorf("to node %s: unexpected safe message %s", n.p, m.MsgKey())
	}
}

// maybeMarkExchangeSafe marks the exchanged labels safe once (a) the view is
// established locally and (b) safe indications for all members' summaries
// have arrived. This is the repaired form of Figure 5's DVS-SAFE(summary)
// handler; see the package comment. It reports whether it marked them.
func (n *Node) maybeMarkExchangeSafe() bool {
	if !n.currentOK || n.status != StatusNormal || !n.established[n.current.ID] {
		return false
	}
	if !n.safeExch.Equal(n.current.Members) {
		return false
	}
	for _, l := range n.gotstate.FullOrder().Ord {
		n.hist.markSafe(l)
	}
	return true
}

// --- Locally controlled actions ---

// labelHead returns the head of delay if the internal label action is
// enabled. Figure 5 as printed allows labeling whenever current ≠ ⊥; in
// literal mode we reproduce that. The repaired (default) mode additionally
// requires status = normal: labeling during recovery puts the fresh label
// into the summary's content, so establishment orders it via fullorder's
// label-order tail, and the buffered copy sent after establishment is then
// ordered a second time — a duplicate delivery (demonstrated mechanically in
// the tests).
func (n *Node) labelHead() (string, bool) {
	if len(n.delay) == 0 || !n.currentOK {
		return "", false
	}
	if !n.literal && n.status != StatusNormal {
		return "", false
	}
	return n.delay[0], true
}

// performLabel applies the internal label(a)_p action.
func (n *Node) performLabel(a string) error {
	head, ok := n.labelHead()
	if !ok || head != a {
		return fmt.Errorf("label(%s)_%s: not enabled", a, n.p)
	}
	n.label()
	return nil
}

// label is the effect of label(a)_p for a = head of delay. The effect
// helpers (label, sendLabel, sendSummary, confirm, brcv, register) let drain
// apply an action right after the guard it has just evaluated; the
// perform*/take* methods, which Impl.Perform calls with an action it was
// handed by name, are guard plus the same helper.
func (n *Node) label() {
	a := n.delay[0]
	l := types.Label{ID: n.current.ID, Seqno: n.nextSeqno, Origin: n.p}
	n.hist.put(l, a)
	n.buffer = append(n.buffer, l)
	n.nextSeqno++
	n.delay = n.delay[1:]
}

// gpSndLabel returns the ⟨l,a⟩ message a dvs-gpsnd output would send, if
// enabled (status = normal, buffer nonempty).
func (n *Node) gpSndLabel() (LabelMsg, bool) {
	if n.status != StatusNormal || len(n.buffer) == 0 {
		return LabelMsg{}, false
	}
	l := n.buffer[0]
	a, ok := n.hist.get(l)
	if !ok {
		return LabelMsg{}, false
	}
	return LabelMsg{L: l, A: a}, true
}

// takeGpSndLabel applies the effect of sending the buffered label message.
func (n *Node) takeGpSndLabel(m LabelMsg) error {
	head, ok := n.gpSndLabel()
	if !ok || head != m {
		return fmt.Errorf("dvs-gpsnd(%s)_%s: not enabled", m.MsgKey(), n.p)
	}
	n.sendLabel()
	return nil
}

func (n *Node) sendLabel() { n.buffer = n.buffer[1:] }

// gpSndSummary returns the summary message a dvs-gpsnd output would send, if
// enabled (status = send).
func (n *Node) gpSndSummary() (SummaryMsg, bool) {
	if n.status != StatusSend {
		return SummaryMsg{}, false
	}
	return SummaryMsg{X: n.Summary()}, true
}

// takeGpSndSummary applies the effect of sending the summary.
func (n *Node) takeGpSndSummary(m SummaryMsg) error {
	head, ok := n.gpSndSummary()
	if !ok || !head.EqualMsg(m) {
		return fmt.Errorf("dvs-gpsnd(summary)_%s: not enabled", n.p)
	}
	n.sendSummary()
	return nil
}

func (n *Node) sendSummary() { n.status = StatusCollect }

// confirmEnabled reports whether the internal confirm action is enabled.
func (n *Node) confirmEnabled() bool {
	i := n.nextConfirm - 1 - n.base
	return uint(i) < uint(len(n.order)) && n.hist.isSafe(n.order[i])
}

// performConfirm applies the internal confirm action.
func (n *Node) performConfirm() error {
	if !n.confirmEnabled() {
		return fmt.Errorf("confirm_%s: not enabled", n.p)
	}
	n.confirm()
	return nil
}

// confirm is the effect of confirm_p. In a normal view that is the whole
// universe the label confirmed is safe at every process there is, which is
// what makes it stable (see the package comment; onDVSSafe has the other
// way there, for what an exchange confirms without a confirm_p).
func (n *Node) confirm() {
	n.nextConfirm++
	if n.whole && n.status == StatusNormal {
		n.stable = n.nextConfirm - 1
		n.truncate()
	}
}

// truncate drops the order below min(stable, nextreport-1), with its
// content and safe marks, and whatever the buildOrder entries hold of it.
func (n *Node) truncate() {
	from, to := n.base, min(n.stable, n.nextReport-1)
	for n.base < to && len(n.order) > 0 && n.hist.drop(n.order[0]) {
		n.digest = types.Roll(n.digest, n.order[0])
		n.order = n.order[1:]
		n.base++
	}
	if from < n.boEnd && from < n.base {
		for g, bo := range n.buildOrder {
			n.buildOrder[g], _ = bo.From(max(bo.Base, min(n.base, bo.Len())))
		}
	}
}

// brcvNext returns the (a, origin) pair the next brcv output would deliver,
// if enabled (nextreport < nextconfirm).
func (n *Node) brcvNext() (a string, origin types.ProcID, ok bool) {
	i := n.nextReport - 1 - n.base
	if n.nextReport >= n.nextConfirm || uint(i) >= uint(len(n.order)) {
		return "", 0, false
	}
	l := n.order[i]
	payload, has := n.hist.get(l)
	if !has {
		return "", 0, false
	}
	return payload, l.Origin, true
}

// performBRcv applies the brcv(a)_{q,p} output.
func (n *Node) performBRcv(a string, origin types.ProcID) error {
	wa, worigin, ok := n.brcvNext()
	if !ok || wa != a || worigin != origin {
		return fmt.Errorf("brcv(%s)_%s,%s: not enabled", a, origin, n.p)
	}
	n.brcv()
	return nil
}

func (n *Node) brcv() {
	n.nextReport++
	n.truncate()
}

// registerEnabled reports whether the dvs-register output is enabled:
// current ≠ ⊥, established, and not yet registered.
func (n *Node) registerEnabled() bool {
	return n.currentOK && n.established[n.current.ID] && !n.registered[n.current.ID]
}

// performRegister applies the dvs-register output.
func (n *Node) performRegister() error {
	if !n.registerEnabled() {
		return fmt.Errorf("dvs-register_%s: not enabled", n.p)
	}
	n.register()
	return nil
}

func (n *Node) register() { n.registered[n.current.ID] = true }

// Clone returns an independent deep copy.
func (n *Node) Clone() *Node {
	c := &Node{
		p:           n.p,
		literal:     n.literal,
		current:     n.current.Clone(),
		currentOK:   n.currentOK,
		status:      n.status,
		hist:        n.hist.Clone(),
		nextSeqno:   n.nextSeqno,
		buffer:      types.CloneSeq(n.buffer),
		order:       types.CloneSeq(n.order),
		nextConfirm: n.nextConfirm,
		nextReport:  n.nextReport,
		universe:    maps.Clone(n.universe),
		whole:       n.whole,
		stable:      n.stable,
		base:        n.base,
		digest:      n.digest,
		mismatch:    n.mismatch,
		highPrimary: n.highPrimary,
		gotstate:    n.gotstate.Clone(),
		safeExch:    n.safeExch.Clone(),
		registered:  make(map[types.ViewID]bool, len(n.registered)),
		delay:       types.CloneSeq(n.delay),
		established: make(map[types.ViewID]bool, len(n.established)),
		buildOrder:  make(map[types.ViewID]types.Suffix, len(n.buildOrder)),
		boEnd:       n.boEnd,
	}
	for g, b := range n.registered {
		c.registered[g] = b
	}
	for g, b := range n.established {
		c.established[g] = b
	}
	for g, bo := range n.buildOrder {
		bo.Ord = types.CloneSeq(bo.Ord)
		c.buildOrder[g] = bo
	}
	return c
}

// ConfirmedShared returns what is held of the confirmed prefix,
// order(base+1..nextconfirm-1), without copying; the slice is read-only.
func (n *Node) ConfirmedShared() []types.Label { return n.order[:n.nextConfirm-1-n.base] }
