package tocore

import (
	"testing"

	"repro/internal/types"
)

func v(seq uint64, members ...types.ProcID) types.View {
	return types.NewView(types.ViewID{Seq: seq}, members...)
}

func newTONode(t *testing.T) (*Node, types.View) {
	t.Helper()
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	return NewNode(0, v0, true, false), v0
}

func TestTONodeInitial(t *testing.T) {
	n, v0 := newTONode(t)
	if cur, ok := n.Current(); !ok || cur != v0 {
		t.Error("current must start at v0")
	}
	if n.Status() != StatusNormal {
		t.Error("status must start normal")
	}
	if !n.highPrimary.IsZero() {
		t.Error("highprimary must start at g0")
	}
	out := NewNode(4, v0, false, false)
	if _, ok := out.Current(); ok {
		t.Error("outsider starts at ⊥")
	}
}

func TestLabelAssignsSequentialLabels(t *testing.T) {
	n, v0 := newTONode(t)
	n.onBCast("a")
	n.onBCast("b")
	for _, want := range []string{"a", "b"} {
		head, ok := n.labelHead()
		if !ok || head != want {
			t.Fatalf("LabelHead = %q, %v (want %q)", head, ok, want)
		}
		if err := n.performLabel(head); err != nil {
			t.Fatal(err)
		}
	}
	m1, ok := n.gpSndLabel()
	if !ok {
		t.Fatal("no buffered label message")
	}
	if m1.L != (types.Label{ID: v0.ID, Seqno: 1, Origin: 0}) || m1.A != "a" {
		t.Errorf("first label message = %+v", m1)
	}
	if err := n.takeGpSndLabel(m1); err != nil {
		t.Fatal(err)
	}
	m2, _ := n.gpSndLabel()
	if m2.L.Seqno != 2 {
		t.Errorf("second label seqno = %d", m2.L.Seqno)
	}
}

func TestLabelRequiresViewAndNormalStatus(t *testing.T) {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	outsider := NewNode(4, v0, false, false)
	outsider.onBCast("x")
	if _, ok := outsider.labelHead(); ok {
		t.Error("labeling without a view")
	}
	n, _ := newTONode(t)
	n.onDVSNewView(v(1, 0, 1))
	n.onBCast("x")
	if _, ok := n.labelHead(); ok {
		t.Error("repaired node must not label during recovery")
	}
	lit := NewNode(0, v0, true, true)
	lit.onDVSNewView(v(1, 0, 1))
	lit.onBCast("x")
	if _, ok := lit.labelHead(); !ok {
		t.Error("literal Figure 5 labels during recovery (that is the printed behavior)")
	}
}

func TestRecvAppendsOrderAndConfirm(t *testing.T) {
	n, v0 := newTONode(t)
	l := types.Label{ID: v0.ID, Seqno: 1, Origin: 1}
	if err := n.onDVSGpRcv(LabelMsg{L: l, A: "x"}, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Order(); len(got) != 1 || got[0] != l {
		t.Fatalf("order = %v", got)
	}
	if n.confirmEnabled() {
		t.Fatal("confirm before safe")
	}
	if err := n.onDVSSafe(LabelMsg{L: l, A: "x"}, 1); err != nil {
		t.Fatal(err)
	}
	if !n.confirmEnabled() {
		t.Fatal("confirm should be enabled after safe")
	}
	if err := n.performConfirm(); err != nil {
		t.Fatal(err)
	}
	a, origin, ok := n.brcvNext()
	if !ok || a != "x" || origin != 1 {
		t.Fatalf("BRcvNext = %q, %v, %v", a, origin, ok)
	}
	if err := n.performBRcv(a, origin); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := n.brcvNext(); ok {
		t.Error("nothing further to report")
	}
}

func TestRecoveryExchangeAndEstablish(t *testing.T) {
	n, v0 := newTONode(t)
	// Confirmed work in v0.
	l := types.Label{ID: v0.ID, Seqno: 1, Origin: 0}
	if err := n.onDVSGpRcv(LabelMsg{L: l, A: "pre"}, 0); err != nil {
		t.Fatal(err)
	}
	v1 := v(1, 0, 1)
	n.onDVSNewView(v1)
	if n.Status() != StatusSend {
		t.Fatal("status must be send after newview")
	}
	sum, ok := n.gpSndSummary()
	if !ok {
		t.Fatal("summary not offered")
	}
	if len(sum.X.Ord) != 1 || sum.X.Ord[0] != l {
		t.Errorf("summary order = %v", sum.X.Ord)
	}
	if err := n.takeGpSndSummary(sum); err != nil {
		t.Fatal(err)
	}
	if n.Status() != StatusCollect {
		t.Fatal("status must be collect after sending summary")
	}
	// Receive own summary and peer's summary: establishment.
	if err := n.onDVSGpRcv(sum, 0); err != nil {
		t.Fatal(err)
	}
	peer := types.Summary{Con: types.Content{}, Next: 1, High: types.ViewIDZero}
	if err := n.onDVSGpRcv(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	if n.Status() != StatusNormal || !n.Established(v1.ID) {
		t.Fatal("establishment did not happen")
	}
	if n.highPrimary != v1.ID {
		t.Error("highprimary not advanced")
	}
	if got := n.Order(); len(got) != 1 || got[0] != l {
		t.Errorf("established order = %v", got)
	}
	if bo := n.buildOrder[v1.ID]; bo.Len() != 1 {
		t.Errorf("buildorder history = %v", bo)
	}
	// Registration now enabled exactly once.
	if !n.registerEnabled() {
		t.Fatal("register should be enabled after establishment")
	}
	if err := n.performRegister(); err != nil {
		t.Fatal(err)
	}
	if n.registerEnabled() {
		t.Error("register must be once per view")
	}
}

func TestEstablishmentPicksMaxHighRep(t *testing.T) {
	n, v0 := newTONode(t)
	v1 := v(1, 0, 1)
	n.onDVSNewView(v1)
	sum, _ := n.gpSndSummary()
	if err := n.takeGpSndSummary(sum); err != nil {
		t.Fatal(err)
	}
	lNew := types.Label{ID: types.ViewID{Seq: 9}, Seqno: 1, Origin: 1}
	peer := types.Summary{
		Con:  types.Content{lNew: "newer"},
		Ord:  []types.Label{lNew},
		Next: 2,
		High: types.ViewID{Seq: 9}, // peer established a higher primary
	}
	if err := n.onDVSGpRcv(sum, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.onDVSGpRcv(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	ord := n.Order()
	if len(ord) == 0 || ord[0] != lNew {
		t.Errorf("established order must start with the max-high rep's order: %v", ord)
	}
	if n.NextConfirm() != 2 {
		t.Errorf("nextconfirm = %d, want maxnextconfirm 2", n.NextConfirm())
	}
	_ = v0
}

func TestSafeExchangeMarksLabels(t *testing.T) {
	n, v0 := newTONode(t)
	l := types.Label{ID: v0.ID, Seqno: 1, Origin: 0}
	if err := n.onDVSGpRcv(LabelMsg{L: l, A: "pre"}, 0); err != nil {
		t.Fatal(err)
	}
	v1 := v(1, 0, 1)
	n.onDVSNewView(v1)
	sum, _ := n.gpSndSummary()
	if err := n.takeGpSndSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := n.onDVSGpRcv(sum, 0); err != nil {
		t.Fatal(err)
	}
	peer := types.Summary{Con: types.Content{}, Next: 1, High: types.ViewIDZero}
	if err := n.onDVSGpRcv(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	// Safe for both summaries: exchanged labels become safe; l confirms.
	if err := n.onDVSSafe(sum, 0); err != nil {
		t.Fatal(err)
	}
	if n.confirmEnabled() {
		t.Fatal("confirm before the whole exchange is safe")
	}
	if err := n.onDVSSafe(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	if !n.confirmEnabled() {
		t.Fatal("confirm should be enabled once the exchange is safe")
	}
}

func TestRepairedDefersSafeExchangeUntilEstablished(t *testing.T) {
	n, v0 := newTONode(t)
	l := types.Label{ID: v0.ID, Seqno: 1, Origin: 0}
	if err := n.onDVSGpRcv(LabelMsg{L: l, A: "pre"}, 0); err != nil {
		t.Fatal(err)
	}
	v1 := v(1, 0, 1)
	n.onDVSNewView(v1)
	sum, _ := n.gpSndSummary()
	if err := n.takeGpSndSummary(sum); err != nil {
		t.Fatal(err)
	}
	// Safe indications arrive BEFORE the summaries themselves (possible
	// over the amended DVS): the repaired node must not mark anything yet.
	if err := n.onDVSSafe(sum, 0); err != nil {
		t.Fatal(err)
	}
	peer := types.Summary{Con: types.Content{}, Next: 1, High: types.ViewIDZero}
	if err := n.onDVSSafe(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	if n.confirmEnabled() {
		t.Fatal("repaired node must not confirm from a partial exchange")
	}
	// Now the summaries arrive and the view establishes: the pending safe
	// exchange is applied.
	if err := n.onDVSGpRcv(sum, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.onDVSGpRcv(SummaryMsg{X: peer}, 1); err != nil {
		t.Fatal(err)
	}
	if !n.Established(v1.ID) {
		t.Fatal("not established")
	}
	if !n.confirmEnabled() {
		t.Fatal("deferred safe-exchange marking did not happen")
	}
}

func TestTONodeCloneDeep(t *testing.T) {
	n, _ := newTONode(t)
	n.onBCast("x")
	c := n.Clone()
	if err := c.performLabel("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.labelHead(); !ok {
		t.Error("clone mutation leaked")
	}
}

// deliverInView feeds n k labels of origin 1 through receipt, safe indication
// and the drain, and returns them.
func deliverInView(t *testing.T, n *Node, g types.ViewID, from, k int) []types.Label {
	t.Helper()
	var ls []types.Label
	for i := from; i < from+k; i++ {
		m := LabelMsg{L: types.Label{ID: g, Seqno: i, Origin: 1}, A: "x"}
		ls = append(ls, m.L)
		for _, ev := range []Event{{Kind: EvRecv, M: m, From: 1}, {Kind: EvSafe, M: m, From: 1}} {
			if err := Step(n, ev, true, &Outbox{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ls
}

// TestTruncateAndSplice walks one node through the rule: it holds
// everything until told the universe, drops what it has confirmed and
// delivered while the view is the universe, and at the next exchange aligns
// with a representative whose base is behind its own, ahead of it, or out of
// its reach.
func TestTruncateAndSplice(t *testing.T) {
	n, v0 := newTONode(t)
	ls := deliverInView(t, n, v0.ID, 1, 3)
	if n.Base() != 0 || n.Retained() != 3 {
		t.Fatalf("a node never told the universe dropped labels: base %d, %d held", n.Base(), n.Retained())
	}
	if err := Step(n, Event{Kind: EvUniverse, Set: v0.Members}, true, &Outbox{}); err != nil {
		t.Fatal(err)
	}
	ls = append(ls, deliverInView(t, n, v0.ID, 4, 2)...)
	if n.Base() != 5 || n.Retained() != 0 || len(n.hist.export()) != 0 {
		t.Fatalf("in the universe view: base %d, %d held, content %v; want everything dropped", n.Base(), n.Retained(), n.hist.export())
	}
	want, _ := types.Suffix{Ord: ls}.From(5)
	if n.digest != want.Digest {
		t.Fatal("digest is not the chain over the dropped labels")
	}

	// A view without process 2 pins the frontier: delivered, held.
	v1 := v(1, 0, 1)
	var out Outbox
	if err := Step(n, Event{Kind: EvNewView, View: v1}, true, &out); err != nil {
		t.Fatal(err)
	}
	mine := out.Effects[0].M.(SummaryMsg).X
	if mine.Base != 5 || mine.Digest != want.Digest || len(mine.Ord) != 0 || len(mine.Con) != 0 || mine.Next != 6 {
		t.Fatalf("summary %v, want base 5 and nothing else", mine)
	}
	// Process 1 is behind: it holds the last two labels (base 3) and one more,
	// made in v0 but never ordered there.
	extra := types.Label{ID: v0.ID, Seqno: 1, Origin: 2}
	behind, _ := types.Suffix{Ord: ls}.From(3)
	peer := types.Summary{Con: types.Content{ls[3]: "x", ls[4]: "x", extra: "y"}, Base: 3, Digest: behind.Digest, Ord: behind.Ord, Next: 4}
	for q, x := range map[types.ProcID]types.Summary{0: mine, 1: peer} {
		if err := Step(n, Event{Kind: EvRecv, M: SummaryMsg{X: x}, From: q}, true, &Outbox{}); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Established(v1.ID) || n.Base() != 5 || n.BaseMismatches() != 0 {
		t.Fatalf("established %v base %d mismatches %d", n.Established(v1.ID), n.Base(), n.BaseMismatches())
	}
	if got := n.Order(); len(got) != 1 || got[0] != extra {
		t.Fatalf("order after the exchange = %v, want only %v: the peer's two stale labels are below this node's base", got, extra)
	}
	if _, stale := n.hist.get(ls[4]); stale {
		t.Error("a dropped label's content came back with the peer's summary")
	}

	// A representative whose base this node's order does not reach, and one
	// whose dropped prefix is another sequence: counted, not established.
	for i, rep := range []types.Summary{
		{Base: 9, Digest: 1, Next: 10, High: v1.ID},
		{Base: 5, Digest: want.Digest + 1, Ord: []types.Label{extra, {ID: v1.ID, Seqno: 1, Origin: 1}}, Next: 6, High: v1.ID},
	} {
		vi := v(uint64(2+i), 0, 1)
		for _, ev := range []Event{{Kind: EvNewView, View: vi}, {Kind: EvRecv, M: SummaryMsg{X: n.Summary()}, From: 0}, {Kind: EvRecv, M: SummaryMsg{X: rep}, From: 1}} {
			if err := Step(n, ev, true, &Outbox{}); err != nil {
				t.Fatal(err)
			}
		}
		if n.Established(vi.ID) || n.BaseMismatches() != i+1 {
			t.Fatalf("misaligned representative %d: established %v, %d mismatches", i, n.Established(vi.ID), n.BaseMismatches())
		}
	}
}
