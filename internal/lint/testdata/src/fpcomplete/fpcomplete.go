// Package fpcomplete holds golden cases for the fpcomplete analyzer.
package fpcomplete

// W is a minimal fingerprint sink; fpcomplete keys on method names
// (WriteFp/Fingerprint/AddFingerprint), not on the sink's type.
type W struct{}

// Int writes one int.
func (W) Int(int) {}

// Str writes one string.
func (W) Str(string) {}

// Good streams every field.
type Good struct {
	A int
	B int
}

// WriteFp covers A and B.
func (g Good) WriteFp(w W) {
	w.Int(g.A)
	w.Int(g.B)
}

// ViaHelper reads one field through a same-package helper; the call-graph
// walk must credit it.
type ViaHelper struct {
	A int
	B int
}

// Fingerprint covers B directly and A via writeA.
func (v ViaHelper) Fingerprint(w W) {
	v.writeA(w)
	w.Int(v.B)
}

func (v ViaHelper) writeA(w W) { w.Int(v.A) }

// Bad misses field B on the fingerprint path.
type Bad struct {
	A int
	B int // want "field Bad.B is never read on the fingerprint path"
}

// WriteFp forgets B.
func (b Bad) WriteFp(w W) {
	w.Int(b.A)
}

// Ignored documents a derived field with a justified escape.
type Ignored struct {
	A int
	//lint:fpignore recomputed from A on demand, never part of state identity
	sum int
}

// WriteFp covers A; sum is escaped.
func (i Ignored) WriteFp(w W) { w.Int(i.A) }

// BadEscape has a reasonless escape: it must NOT suppress the finding, and
// the directive itself is flagged.
type BadEscape struct {
	A int
	B int //lint:fpignore // want "directive needs a reason" "field BadEscape.B is never read"
}

// WriteFp forgets B.
func (b BadEscape) WriteFp(w W) { w.Int(b.A) }

// Typo'd directives are flagged rather than silently ignored.
type TypoDirective struct {
	A int
	B int //lint:fpignored oops // want "unknown lint directive" "field TypoDirective.B is never read"
}

// WriteFp forgets B.
func (t TypoDirective) WriteFp(w W) { w.Int(t.A) }

// Runs is state kept behind a map, written one line per element: the owner's
// fingerprint method only mentions the map. The element is checked in its
// own right because it carries a fingerprint method name — the shape of
// tocore's history and run.
type Runs map[int]*run

type run struct {
	dense  []string
	safeTo int // want "field run.safeTo is never read on the fingerprint path"
}

// AddFingerprint writes every run.
func (h Runs) AddFingerprint(w W) {
	for k, r := range h {
		w.Int(k)
		r.WriteFp(w)
	}
}

// WriteFp forgets the frontier.
func (r *run) WriteFp(w W) {
	for _, a := range r.dense {
		w.Str(a)
	}
}

// Owner holds the map; its own fingerprint is complete.
type Owner struct{ hist Runs }

// AddFingerprint delegates to the map's.
func (o *Owner) AddFingerprint(w W) { o.hist.AddFingerprint(w) }
