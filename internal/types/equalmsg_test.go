package types_test

import (
	"math/rand"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// msgGen draws messages of every concrete types.Msg from a domain small
// enough that two independent draws are often equal. shape decides the
// value; coin decides only between nil and empty collections, which every
// rendering and EqualMsg treat alike — so two generators with equal shape
// seeds and different coin seeds produce equal messages that share no
// memory.
type msgGen struct {
	shape, coin *rand.Rand
	payloads    []string
}

var (
	cleanPayloads = []string{"", "a", "b", "ab"}
	// dirtyPayloads contain the delimiters the renderings join with.
	dirtyPayloads = append([]string{"x|c:y", "x", "y", "=", "a=b", "]", "a]|batch[", " ", "@1", ":"}, cleanPayloads...)
)

func (g *msgGen) payload() string { return g.payloads[g.shape.Intn(len(g.payloads))] }

// count returns a collection length and whether a zero length is nil.
func (g *msgGen) count(max int) (n int, isNil bool) {
	return g.shape.Intn(max + 1), g.coin.Intn(2) == 0
}

func (g *msgGen) viewID() types.ViewID {
	return types.ViewID{Seq: uint64(g.shape.Intn(3)), Origin: types.ProcID(g.shape.Intn(2))}
}

func (g *msgGen) view() types.View {
	v := types.View{ID: g.viewID()}
	n, _ := g.count(3) // a set has no nil form
	for i := 0; i < n; i++ {
		v.Members = v.Members.With(types.ProcID(g.shape.Intn(3)))
	}
	return v
}

func (g *msgGen) label() types.Label {
	return types.Label{ID: g.viewID(), Seqno: 1 + g.shape.Intn(2), Origin: types.ProcID(g.shape.Intn(2))}
}

func (g *msgGen) summary() types.Summary {
	x := types.Summary{Next: 1 + g.shape.Intn(2), High: g.viewID()}
	if n, isNil := g.count(2); n > 0 || !isNil {
		x.Con = make(types.Content, n)
		for i := 0; i < n; i++ {
			x.Con[g.label()] = g.payload()
		}
	}
	if n, isNil := g.count(2); n > 0 || !isNil {
		x.Ord = make([]types.Label, n)
		for i := range x.Ord {
			x.Ord[i] = g.label()
		}
	}
	return x
}

func (g *msgGen) msg(depth int) types.Msg {
	kinds := 6
	if depth >= 2 {
		kinds = 5 // no Batch below two levels of nesting
	}
	switch g.shape.Intn(kinds) {
	case 0:
		return types.ClientMsg(g.payload())
	case 1:
		return dvscore.RegisteredMsg{}
	case 2:
		m := dvscore.InfoMsg{Act: g.view()}
		if n, isNil := g.count(2); n > 0 || !isNil {
			m.Amb = make([]types.View, n)
			for i := range m.Amb {
				m.Amb[i] = g.view()
			}
		}
		return m
	case 3:
		return tocore.LabelMsg{L: g.label(), A: g.payload()}
	case 4:
		return tocore.SummaryMsg{X: g.summary()}
	default:
		var b types.Batch
		if n, isNil := g.count(3); n > 0 || !isNil {
			b.Msgs = make([]types.Msg, n)
			for i := range b.Msgs {
				b.Msgs[i] = g.msg(depth + 1)
			}
		}
		return b
	}
}

// TestEqualMsgAgreesWithMsgKey is the contract between the two faces of a
// message: EqualMsg never calls two messages equal that render differently,
// and where no payload contains a delimiter the rendering is injective, so
// the two agree exactly. EqualMsg is reflexive and symmetric throughout.
// (The collisions themselves are pinned one by one in the next test.)
func TestEqualMsgAgreesWithMsgKey(t *testing.T) {
	for _, tc := range []struct {
		name     string
		payloads []string
		exact    bool
	}{
		{"delimiter-free payloads", cleanPayloads, true},
		{"payloads with delimiters", dirtyPayloads, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coin := rand.New(rand.NewSource(15))
			seeds := rand.New(rand.NewSource(16))
			const pairs = 12000
			equal := 0
			for i := 0; i < pairs; i++ {
				sa, sb := seeds.Int63(), seeds.Int63()
				if i%3 == 0 {
					sb = sa // an equal message built independently
				}
				a := (&msgGen{rand.New(rand.NewSource(sa)), coin, tc.payloads}).msg(0)
				b := (&msgGen{rand.New(rand.NewSource(sb)), coin, tc.payloads}).msg(0)
				if !a.EqualMsg(a) || !b.EqualMsg(b) {
					t.Fatalf("not reflexive: %s / %s", a.MsgKey(), b.MsgKey())
				}
				eq, sameKey := a.EqualMsg(b), a.MsgKey() == b.MsgKey()
				if eq != b.EqualMsg(a) {
					t.Fatalf("not symmetric: %s vs %s", a.MsgKey(), b.MsgKey())
				}
				if sa == sb && !eq {
					t.Fatalf("equal messages built apart compare unequal: %s", a.MsgKey())
				}
				if eq && !sameKey {
					t.Fatalf("equal messages render differently: %s vs %s", a.MsgKey(), b.MsgKey())
				}
				if tc.exact && sameKey && !eq {
					t.Fatalf("delimiter-free messages render alike but compare unequal: %s (%#v vs %#v)", a.MsgKey(), a, b)
				}
				if eq {
					equal++
				}
			}
			if equal < pairs/3 || equal > pairs*3/4 {
				t.Errorf("%d of %d pairs were equal: the generator no longer exercises both outcomes", equal, pairs)
			}
		})
	}
}

// TestEqualMsgDistinguishesDelimiterPayloads pins the collisions equality by
// rendering had: Batch.MsgKey joins members with '|', LabelMsg.MsgKey joins
// label and payload with '=', Content.String joins entries with ' ', and a
// payload may contain any of them.
func TestEqualMsgDistinguishesDelimiterPayloads(t *testing.T) {
	l1 := types.Label{Seqno: 1}
	l2 := types.Label{Seqno: 2}
	for _, tc := range []struct {
		name string
		a, b types.Msg
	}{
		{
			"batch member containing the member separator",
			types.Batch{Msgs: []types.Msg{types.ClientMsg("x|c:y")}},
			types.Batch{Msgs: []types.Msg{types.ClientMsg("x"), types.ClientMsg("y")}},
		},
		{
			"batch member containing the closing bracket",
			types.Batch{Msgs: []types.Msg{types.Batch{Msgs: []types.Msg{types.ClientMsg("x]|batch[c:y")}}}},
			types.Batch{Msgs: []types.Msg{
				types.Batch{Msgs: []types.Msg{types.ClientMsg("x")}},
				types.Batch{Msgs: []types.Msg{types.ClientMsg("y")}},
			}},
		},
		{
			"label payloads containing the label separator",
			types.Batch{Msgs: []types.Msg{tocore.LabelMsg{L: l1, A: "p|lbl:" + l2.String() + "=q"}}},
			types.Batch{Msgs: []types.Msg{tocore.LabelMsg{L: l1, A: "p"}, tocore.LabelMsg{L: l2, A: "q"}}},
		},
		{
			"summary content containing the entry separator",
			tocore.SummaryMsg{X: types.Summary{Con: types.Content{l1: "p " + l2.String() + "=q"}}},
			tocore.SummaryMsg{X: types.Summary{Con: types.Content{l1: "p", l2: "q"}}},
		},
	} {
		if tc.a.MsgKey() != tc.b.MsgKey() {
			t.Errorf("%s: the pair no longer renders alike (%q vs %q), so it pins nothing", tc.name, tc.a.MsgKey(), tc.b.MsgKey())
		}
		if tc.a.EqualMsg(tc.b) || tc.b.EqualMsg(tc.a) {
			t.Errorf("%s: structurally different messages compare equal (both render %q)", tc.name, tc.a.MsgKey())
		}
	}
}

// TestSummaryEqual covers the cases the generator's small domain leaves
// thin: order matters in Ord, not in Con; nil and empty agree.
func TestSummaryEqual(t *testing.T) {
	l1, l2 := types.Label{Seqno: 1}, types.Label{Seqno: 2}
	base := types.Summary{Con: types.Content{l1: "a", l2: "b"}, Ord: []types.Label{l1, l2}, Next: 2, High: types.ViewID{Seq: 1}}
	if !base.Equal(base.Clone()) {
		t.Error("a summary differs from its clone")
	}
	if !(types.Summary{Next: 1}).Equal(types.Summary{Con: types.Content{}, Ord: []types.Label{}, Next: 1}) {
		t.Error("nil and empty Con/Ord differ")
	}
	for name, mutate := range map[string]func(*types.Summary){
		"next":        func(x *types.Summary) { x.Next++ },
		"high":        func(x *types.Summary) { x.High.Origin++ },
		"ord order":   func(x *types.Summary) { x.Ord[0], x.Ord[1] = x.Ord[1], x.Ord[0] },
		"ord length":  func(x *types.Summary) { x.Ord = x.Ord[:1] },
		"con payload": func(x *types.Summary) { x.Con[l2] = "c" },
		"con domain":  func(x *types.Summary) { delete(x.Con, l2); x.Con[types.Label{Seqno: 3}] = "b" },
		"con size":    func(x *types.Summary) { delete(x.Con, l2) },
	} {
		y := base.Clone()
		mutate(&y)
		if base.Equal(y) || y.Equal(base) {
			t.Errorf("summaries differing in %s compare equal", name)
		}
	}
}
