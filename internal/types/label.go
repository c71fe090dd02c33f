package types

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Label is an element of L = G × N>0 × P, the system-wide unique labels the
// TO application assigns to client messages (Section 6). Labels are ordered
// lexicographically by (ID, Seqno, Origin); the paper calls this "label
// order".
type Label struct {
	ID     ViewID
	Seqno  int
	Origin ProcID
}

// Less reports whether a precedes b in label order.
func (a Label) Less(b Label) bool {
	if a.ID != b.ID {
		return a.ID.Less(b.ID)
	}
	if a.Seqno != b.Seqno {
		return a.Seqno < b.Seqno
	}
	return a.Origin < b.Origin
}

// String renders the label as "id/seqno@origin".
func (a Label) String() string {
	return a.ID.String() + "/" + strconv.Itoa(a.Seqno) + "@" + strconv.Itoa(int(a.Origin))
}

// SortLabels orders labels in place by label order.
func SortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
}

// Content is the relation C = L × A associating labels with client messages.
// The TO automaton only ever associates one message per label, so a map is
// the natural representation; Merge unions two relations.
type Content map[Label]string

// Clone returns an independent copy of c.
func (c Content) Clone() Content {
	out := make(Content, len(c))
	for l, a := range c {
		out[l] = a
	}
	return out
}

// Merge adds every association of other into c.
func (c Content) Merge(other Content) {
	for l, a := range other {
		c[l] = a
	}
}

// Labels returns the domain of c in label order.
func (c Content) Labels() []Label {
	out := make([]Label, 0, len(c))
	for l := range c {
		out = append(out, l)
	}
	SortLabels(out)
	return out
}

// String renders c canonically in label order.
func (c Content) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range c.Labels() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
		b.WriteByte('=')
		b.WriteString(c[l])
	}
	b.WriteByte('}')
	return b.String()
}

// Summary is an element of S = 2^C × seqof(L) × N>0 × G, the state summary a
// process multicasts during recovery (Section 6): its content relation, its
// tentative order, its next-confirm index, and the highest primary it has
// established.
type Summary struct {
	Con  Content
	Ord  []Label
	Next int
	High ViewID
}

// Clone returns an independent copy of x.
func (x Summary) Clone() Summary {
	return Summary{
		Con:  x.Con.Clone(),
		Ord:  CloneSeq(x.Ord),
		Next: x.Next,
		High: x.High,
	}
}

// Equal reports whether x and y are the same summary. maps.Equal and
// slices.Equal compare lengths first, so nil and empty agree (as they do in
// String) and unequal histories are usually told apart without a scan.
func (x Summary) Equal(y Summary) bool {
	return x.Next == y.Next && x.High == y.High &&
		slices.Equal(x.Ord, y.Ord) && maps.Equal(x.Con, y.Con)
}

// String renders the summary canonically.
func (x Summary) String() string {
	var b strings.Builder
	b.WriteString("sum{con=")
	b.WriteString(x.Con.String())
	b.WriteString(" ord=[")
	for i, l := range x.Ord {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
	}
	b.WriteString("] next=")
	b.WriteString(strconv.Itoa(x.Next))
	b.WriteString(" high=")
	b.WriteString(x.High.String())
	b.WriteByte('}')
	return b.String()
}

// GotState is a partial function from processor ids to summaries, as used by
// the recovery procedure of DVS-TO-TO.
type GotState map[ProcID]Summary

// Clone returns a deep copy of y.
func (y GotState) Clone() GotState {
	out := make(GotState, len(y))
	for p, x := range y {
		out[p] = x.Clone()
	}
	return out
}

// KnownContent returns the union of the content relations of all summaries.
func (y GotState) KnownContent() Content {
	out := make(Content)
	for _, x := range y {
		out.Merge(x.Con)
	}
	return out
}

// MaxPrimary returns max over the domain of y of the high components.
func (y GotState) MaxPrimary() ViewID {
	var best ViewID
	for _, x := range y {
		if best.Less(x.High) {
			best = x.High
		}
	}
	return best
}

// MaxNextConfirm returns the maximum next component among the summaries.
func (y GotState) MaxNextConfirm() int {
	best := 1
	for _, x := range y {
		if x.Next > best {
			best = x.Next
		}
	}
	return best
}

// ChosenRep picks a representative among the processes whose high component
// equals MaxPrimary(y). The paper allows "some element in reps(Y)", but not
// every choice is safe: highprimary is initialized to g0 at every process —
// including processes that were never members of the initial view — so a
// rep can tie for max-high while holding an empty (or strictly shorter)
// tentative order, and fullorder would then reorder labels an earlier
// primary already confirmed (mechanically demonstrated in the toimpl
// tests). The safe instantiation, implicit in the Keidar–Dolev algorithm
// the paper builds on, picks the rep with the ⊑-maximal tentative order:
// reps' orders are pairwise prefix-related (members that actually
// established maxprimary computed identical establishment orders and then
// received identical per-view delivery sequences; defaulted reps hold λ),
// so "longest order, ties by least id" is well-defined, agreed on by all
// members holding equal gotstate maps, and extends every confirmed prefix.
func (y GotState) ChosenRep() (ProcID, bool) {
	high := y.MaxPrimary()
	var rep ProcID
	found := false
	best := -1
	for p, x := range y {
		if x.High != high {
			continue
		}
		if !found || len(x.Ord) > best || (len(x.Ord) == best && p < rep) {
			rep = p
			best = len(x.Ord)
			found = true
		}
	}
	return rep, found
}

// ShortOrder returns the tentative order of the chosen representative.
func (y GotState) ShortOrder() []Label {
	rep, ok := y.ChosenRep()
	if !ok {
		return nil
	}
	return CloneSeq(y[rep].Ord)
}

// FullOrder returns shortorder(Y) followed by the remaining labels of
// dom(knowncontent(Y)) in label order.
func (y GotState) FullOrder() []Label {
	short := y.ShortOrder()
	seen := make(map[Label]struct{}, len(short))
	for _, l := range short {
		seen[l] = struct{}{}
	}
	rest := make([]Label, 0)
	for l := range y.KnownContent() {
		if _, ok := seen[l]; !ok {
			rest = append(rest, l)
		}
	}
	SortLabels(rest)
	return append(short, rest...)
}
