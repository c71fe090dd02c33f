package types

import (
	"testing"
	"testing/quick"
)

func TestLabelLess(t *testing.T) {
	l := func(seq uint64, origin ProcID, seqno int) Label {
		return Label{ID: ViewID{seq, origin}, Seqno: seqno, Origin: origin}
	}
	cases := []struct {
		a, b Label
		want bool
	}{
		{l(1, 0, 1), l(2, 0, 1), true},
		{l(2, 0, 1), l(1, 0, 5), false},
		{Label{ViewID{1, 0}, 1, 0}, Label{ViewID{1, 0}, 2, 0}, true},
		{Label{ViewID{1, 0}, 1, 0}, Label{ViewID{1, 0}, 1, 1}, true},
		{Label{ViewID{1, 0}, 1, 1}, Label{ViewID{1, 0}, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%s.Less(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLabelOrderTotal(t *testing.T) {
	f := func(s1, s2 uint8, n1, n2 uint8, o1, o2 uint8) bool {
		a := Label{ViewID{uint64(s1), 0}, int(n1), ProcID(o1)}
		b := Label{ViewID{uint64(s2), 0}, int(n2), ProcID(o2)}
		tri := 0
		if a.Less(b) {
			tri++
		}
		if b.Less(a) {
			tri++
		}
		if a == b {
			tri++
		}
		return tri == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortLabels(t *testing.T) {
	ls := []Label{
		{ViewID{2, 0}, 1, 0},
		{ViewID{1, 0}, 2, 1},
		{ViewID{1, 0}, 1, 1},
	}
	SortLabels(ls)
	for i := 1; i < len(ls); i++ {
		if ls[i].Less(ls[i-1]) {
			t.Fatalf("not sorted: %v", ls)
		}
	}
}

func TestContentMergeClone(t *testing.T) {
	a := Content{Label{ViewID{1, 0}, 1, 0}: "x"}
	b := Content{Label{ViewID{1, 0}, 2, 0}: "y"}
	c := a.Clone()
	c.Merge(b)
	if len(a) != 1 || len(c) != 2 {
		t.Errorf("Merge/Clone wrong: |a|=%d |c|=%d", len(a), len(c))
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[1].Less(labels[0]) {
		t.Errorf("Labels not sorted: %v", labels)
	}
}

func TestSummaryClone(t *testing.T) {
	x := Summary{
		Con:  Content{Label{ViewID{1, 0}, 1, 0}: "a"},
		Ord:  []Label{{ViewID{1, 0}, 1, 0}},
		Next: 2,
		High: ViewID{1, 0},
	}
	c := x.Clone()
	c.Con[Label{ViewID{2, 0}, 1, 1}] = "b"
	c.Ord = append(c.Ord, Label{ViewID{2, 0}, 1, 1})
	if len(x.Con) != 1 || len(x.Ord) != 1 {
		t.Error("Summary.Clone not deep")
	}
}

func newSummary(high ViewID, next int, ord ...Label) Summary {
	con := make(Content)
	for _, l := range ord {
		con[l] = "m" + l.String()
	}
	return Summary{Con: con, Ord: ord, Next: next, High: high}
}

func TestGotStateMaxima(t *testing.T) {
	l1 := Label{ViewID{1, 0}, 1, 0}
	l2 := Label{ViewID{1, 0}, 1, 1}
	gs := GotState{
		0: newSummary(ViewID{1, 0}, 3, l1),
		1: newSummary(ViewID{2, 0}, 2, l2),
	}
	if gs.MaxPrimary() != (ViewID{2, 0}) {
		t.Errorf("MaxPrimary = %s", gs.MaxPrimary())
	}
	if gs.MaxNextConfirm() != 3 {
		t.Errorf("MaxNextConfirm = %d", gs.MaxNextConfirm())
	}
	rep, ok := gs.ChosenRep()
	if !ok || rep != 1 {
		t.Errorf("ChosenRep = %v, %v (want 1: the only max-high member)", rep, ok)
	}
}

func TestGotStateChosenRepTieBreak(t *testing.T) {
	gs := GotState{
		2: newSummary(ViewID{1, 0}, 1),
		0: newSummary(ViewID{1, 0}, 1),
		1: newSummary(ViewID{0, 0}, 1),
	}
	rep, ok := gs.ChosenRep()
	if !ok || rep != 0 {
		t.Errorf("ChosenRep = %v (want least id among equal-order max-high)", rep)
	}
	if _, ok := (GotState{}).ChosenRep(); ok {
		t.Error("ChosenRep of empty gotstate should fail")
	}
}

func TestGotStateChosenRepPrefersLongestOrder(t *testing.T) {
	// A defaulted rep (high = g0 without ever establishing anything, empty
	// order) must lose to a genuine member whose tentative order extends
	// the confirmed prefix — the unsafe choice the printed "some element in
	// reps(Y)" permits (finding F5).
	l1 := Label{ViewID{0, 0}, 1, 0}
	l2 := Label{ViewID{0, 0}, 2, 0}
	gs := GotState{
		2: newSummary(ViewIDZero, 1),         // never established; ord = λ
		3: newSummary(ViewIDZero, 2, l1, l2), // real v0 member with history
	}
	rep, ok := gs.ChosenRep()
	if !ok || rep != 3 {
		t.Fatalf("ChosenRep = %v, want the rep with the longest order", rep)
	}
	full := gs.FullOrder().Ord
	if len(full) < 2 || full[0] != l1 || full[1] != l2 {
		t.Fatalf("fullorder must preserve the rep's prefix: %v", full)
	}
}

func TestGotStateFullOrder(t *testing.T) {
	// Chosen rep's order comes first; remaining known labels follow in
	// label order, without duplicates.
	lA := Label{ViewID{1, 0}, 1, 0}
	lB := Label{ViewID{1, 0}, 2, 0}
	lC := Label{ViewID{1, 0}, 1, 1}
	rep := newSummary(ViewID{2, 0}, 1, lB) // rep ordered only lB
	other := newSummary(ViewID{1, 0}, 1, lA, lC)
	gs := GotState{0: rep, 1: other}
	full := gs.FullOrder().Ord
	if len(full) != 3 {
		t.Fatalf("FullOrder = %v", full)
	}
	if full[0] != lB {
		t.Errorf("rep's order must be the prefix, got %v", full)
	}
	if full[1] != lA || full[2] != lC {
		t.Errorf("rest must be in label order, got %v", full)
	}
	seen := map[Label]int{}
	for _, l := range full {
		seen[l]++
		if seen[l] > 1 {
			t.Errorf("duplicate label %s in full order", l)
		}
	}
}

func TestGotStateKnownContent(t *testing.T) {
	l1 := Label{ViewID{1, 0}, 1, 0}
	gs := GotState{0: newSummary(ViewID{1, 0}, 1, l1)}
	kc := gs.KnownContent()
	if len(kc) != 1 {
		t.Errorf("KnownContent = %v", kc)
	}
}

func TestMsgClassification(t *testing.T) {
	if !IsClient(ClientMsg("x")) {
		t.Error("ClientMsg must be a client message")
	}
	if ClientMsg("x").MsgKey() != "c:x" {
		t.Errorf("MsgKey = %q", ClientMsg("x").MsgKey())
	}
}
