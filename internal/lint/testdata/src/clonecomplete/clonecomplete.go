// Package clonecomplete holds golden cases for the clonecomplete analyzer.
package clonecomplete

// Entry is a plain value element.
type Entry struct{ K, V int }

// Good deep-copies everything: fresh map filled by loop, helper-cloned slice.
type Good struct {
	n  int
	m  map[int]int
	xs []Entry
}

// Clone is complete and deep.
func (g *Good) Clone() *Good {
	c := &Good{
		n: g.n,
		m: make(map[int]int, len(g.m)),
	}
	for k, v := range g.m {
		c.m[k] = v
	}
	c.xs = cloneSeq(g.xs)
	return c
}

func cloneSeq(xs []Entry) []Entry {
	out := make([]Entry, len(xs))
	copy(out, xs)
	return out
}

// Positional literals cover fields by index.
type Positional struct {
	a int
	b int
}

// Clone uses a positional literal.
func (p *Positional) Clone() *Positional { return &Positional{p.a, p.b} }

// Missing forgets a field entirely.
type Missing struct {
	n  int
	xs []Entry
}

// Clone forgets xs.
func (m *Missing) Clone() *Missing { // want "Missing.Clone does not copy field xs"
	return &Missing{n: m.n}
}

// Shallow aliases its map.
type Shallow struct {
	m map[int]int
}

// Clone shares the map.
func (s *Shallow) Clone() *Shallow { // want "Shallow.Clone shallow-copies reference field m"
	return &Shallow{m: s.m}
}

// Whole copies the struct wholesale without re-deepening the slice.
type Whole struct {
	n  int
	xs []int
}

// Clone's *c = *w aliases xs.
func (w *Whole) Clone() *Whole { // want "Whole.Clone shallow-copies reference field xs"
	c := &Whole{}
	*c = *w
	return c
}

// WholeFixed re-deep-copies the slice after the whole copy.
type WholeFixed struct {
	n  int
	xs []int
}

// Clone is the corrected pattern.
func (w *WholeFixed) Clone() *WholeFixed {
	c := &WholeFixed{}
	*c = *w
	c.xs = append([]int(nil), w.xs...)
	return c
}

// Delegate clones through its constructor; the delegation walk credits the
// constructor's assignments.
type Delegate struct {
	a  int
	xs []int
}

// NewDelegate copies its slice argument.
func NewDelegate(a int, xs []int) *Delegate {
	cp := make([]int, len(xs))
	copy(cp, xs)
	return &Delegate{a: a, xs: cp}
}

// Clone delegates.
func (d *Delegate) Clone() *Delegate { return NewDelegate(d.a, d.xs) }

// Escaped shares a field by design.
type Escaped struct {
	//lint:clonesafe immutable lookup table shared by every clone on purpose
	tbl map[int]int
}

// Clone shares tbl under the escape.
func (e *Escaped) Clone() *Escaped { return &Escaped{tbl: e.tbl} }

// Runs is state kept behind a map: the owner's Clone only says runs.Clone(),
// so the fields that matter are on a type no checked struct names. The
// element is checked in its own right because it carries the method name —
// the shape of tocore's history and run.
type Runs map[int]*run

type run struct {
	dense  []string
	safeTo int
	sparse map[int]string
}

// Clone copies every run.
func (h Runs) Clone() Runs {
	out := make(Runs, len(h))
	for k, r := range h {
		out[k] = r.Clone()
	}
	return out
}

// Clone forgets the frontier and shares the overflow.
func (r *run) Clone() *run { // want "run.Clone does not copy field safeTo" "run.Clone shallow-copies reference field sparse"
	return &run{dense: append([]string(nil), r.dense...), sparse: r.sparse}
}

// Owner holds the map; its own Clone is complete.
type Owner struct{ hist Runs }

// Clone delegates to the map's Clone.
func (o *Owner) Clone() *Owner { return &Owner{hist: o.hist.Clone()} }
