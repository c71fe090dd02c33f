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

// Suffix is a label sequence whose first Base labels are no longer held:
// Digest chains them (Roll; 0 for none) and Ord is the rest. Two holders that
// dropped different amounts of one sequence compare what is left by rolling
// the lower base's digest forward over its own labels (From).
type Suffix struct {
	Base   int
	Digest uint64
	Ord    []Label
}

// Roll chains l onto the digest of the labels before it.
func Roll(d uint64, l Label) uint64 {
	for _, v := range [...]uint64{l.ID.Seq, uint64(l.ID.Origin), uint64(l.Seqno), uint64(l.Origin)} {
		d = (d ^ v) * 0x100000001b3
		d ^= d >> 29
	}
	return d
}

// Len is the length of the whole sequence, dropped labels included.
func (s Suffix) Len() int { return s.Base + len(s.Ord) }

// From returns s with the labels below position at dropped as well; ok is
// false when at lies outside Base..Len. The result shares Ord's storage, or
// none of it once nothing is left.
func (s Suffix) From(at int) (_ Suffix, ok bool) {
	if at < s.Base || at > s.Len() {
		return s, false
	}
	for _, l := range s.Ord[:at-s.Base] {
		s.Digest = Roll(s.Digest, l)
	}
	if s.Base, s.Ord = at, s.Ord[at-s.Base:]; len(s.Ord) == 0 {
		s.Ord = nil
	}
	return s, true
}

// Summary is an element of S = 2^C × seqof(L) × N>0 × G, the state summary a
// process multicasts during recovery (Section 6): its content relation, its
// tentative order, its next-confirm index, and the highest primary it has
// established. The order is a Suffix: a sender that has truncated its stable
// prefix (tocore) sends Base and Digest in its place, and Con holds content
// for no label below Base. Next indexes the whole sequence.
type Summary struct {
	Con    Content
	Base   int
	Digest uint64
	Ord    []Label
	Next   int
	High   ViewID
}

// Suffix returns x's order as a Suffix sharing Ord.
func (x Summary) Suffix() Suffix { return Suffix{Base: x.Base, Digest: x.Digest, Ord: x.Ord} }

// Clone returns an independent copy of x.
func (x Summary) Clone() Summary {
	return Summary{
		Con:    x.Con.Clone(),
		Base:   x.Base,
		Digest: x.Digest,
		Ord:    CloneSeq(x.Ord),
		Next:   x.Next,
		High:   x.High,
	}
}

// Equal reports whether x and y are the same summary. maps.Equal and
// slices.Equal compare lengths first, so nil and empty agree (as they do in
// String) and unequal histories are usually told apart without a scan.
func (x Summary) Equal(y Summary) bool {
	return x.Next == y.Next && x.High == y.High && x.Base == y.Base && x.Digest == y.Digest &&
		slices.Equal(x.Ord, y.Ord) && maps.Equal(x.Con, y.Con)
}

// String renders the summary canonically; an untruncated order renders as
// it did before orders had bases.
func (x Summary) String() string {
	var b strings.Builder
	b.WriteString("sum{con=")
	b.WriteString(x.Con.String())
	if x.Base > 0 {
		b.WriteString(" base=" + strconv.Itoa(x.Base) + "#" + strconv.FormatUint(x.Digest, 10))
	}
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
// Length counts the labels a rep has dropped below its base.
func (y GotState) ChosenRep() (ProcID, bool) {
	high := y.MaxPrimary()
	var rep ProcID
	found := false
	best := -1
	for p, x := range y {
		if x.High != high {
			continue
		}
		if n := x.Base + len(x.Ord); !found || n > best || (n == best && p < rep) {
			rep, best, found = p, n, true
		}
	}
	return rep, found
}

// ShortOrder returns the tentative order of the chosen representative.
func (y GotState) ShortOrder() Suffix {
	rep, ok := y.ChosenRep()
	if !ok {
		return Suffix{}
	}
	s := y[rep].Suffix()
	s.Ord = CloneSeq(s.Ord)
	return s
}

// FullOrder returns shortorder(Y) followed by the remaining labels of
// dom(knowncontent(Y)) in label order. The representative's base is the
// result's: a label that some summary orders below it is in the stable
// prefix the representative dropped, so it is not one of the remaining
// labels, whoever still sends its content.
func (y GotState) FullOrder() Suffix {
	full := y.ShortOrder()
	seen := make(map[Label]struct{}, len(full.Ord))
	for _, l := range full.Ord {
		seen[l] = struct{}{}
	}
	for _, x := range y {
		for i := 0; i < len(x.Ord) && x.Base+i < full.Base; i++ {
			seen[x.Ord[i]] = struct{}{}
		}
	}
	rest := make([]Label, 0)
	for l := range y.KnownContent() {
		if _, ok := seen[l]; !ok {
			rest = append(rest, l)
		}
	}
	SortLabels(rest)
	full.Ord = append(full.Ord, rest...)
	return full
}
