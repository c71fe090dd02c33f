package ioa

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// fpToy is an automaton whose state is whatever a test puts in its fields.
type fpToy struct {
	lines map[string]string
	set   map[int]struct{}
	seq   []int
	ptr   *int
	val   any
	fn    func()
	note  string `ioa:"shared"`
}

func (*fpToy) Name() string           { return "fpToy" }
func (*fpToy) Enabled() []Action      { return nil }
func (*fpToy) Perform(a Action) error { return nil }
func (t *fpToy) Clone() Automaton     { cp := *t; return &cp }

// toyLines is a toy whose lines hold the key-value pairs kv.
func toyLines(kv ...string) *fpToy {
	t := &fpToy{lines: map[string]string{}}
	t.add(kv...)
	return t
}

func (t *fpToy) add(kv ...string) {
	for i := 0; i+1 < len(kv); i += 2 {
		t.lines[kv[i]] = kv[i+1]
	}
}

// TestFingerprinterEmptyNotZero: an empty state's fingerprint must not be
// the zero Fp (the striped seen-set uses zero as its empty-slot marker and
// stores a real zero fingerprint out of band, but the common empty state
// should not land there), and it must differ from a one-entry state.
func TestFingerprinterEmptyNotZero(t *testing.T) {
	empty := FpOf(&fpToy{})
	if (empty == Fp{}) {
		t.Error("empty state fingerprints as the zero Fp")
	}
	if empty == FpOf(toyLines("", "x")) {
		t.Error("empty state equals a one-entry state")
	}
}

// TestFpOfRules pins what FpOf counts as state and what it does not.
func TestFpOfRules(t *testing.T) {
	one, zero := 1, 0
	same := []struct {
		name string
		a, b *fpToy
	}{
		{"nil equals empty", &fpToy{}, &fpToy{lines: map[string]string{}, seq: []int{}}},
		{"a zero-valued entry is left out", &fpToy{}, toyLines("k", "")},
		{"funcs are skipped", &fpToy{}, &fpToy{fn: func() {}}},
		{"shared fields are skipped", &fpToy{}, &fpToy{note: "x"}},
	}
	for _, c := range same {
		if FpOf(c.a) != FpOf(c.b) {
			t.Errorf("%s: fingerprints differ", c.name)
		}
	}
	differ := []struct {
		name string
		a, b *fpToy
	}{
		{"set keys are kept", &fpToy{}, &fpToy{set: map[int]struct{}{0: {}}}},
		{"nil pointer is marked", &fpToy{}, &fpToy{ptr: &zero}},
		{"pointers are followed", &fpToy{ptr: &zero}, &fpToy{ptr: &one}},
		{"an interface writes its type", &fpToy{val: 1}, &fpToy{val: int64(1)}},
		{"slice boundaries count", &fpToy{seq: []int{1}, val: []int{}}, &fpToy{seq: []int{}, val: []int{1}}},
	}
	for _, c := range differ {
		if FpOf(c.a) == FpOf(c.b) {
			t.Errorf("%s: fingerprints equal", c.name)
		}
	}
}

// permToy holds a process id (permID) everywhere a state can; permView is a
// view id whose sequence number 0 keeps its origin, as g0 does.
type permToy struct {
	self   permID
	n      int // a number, not an id
	ids    []permID
	sorted []permID // sorted again by FixImage
	byID   map[permID]string
	set    map[permID]struct{}
	bits   permSet
	val    any
	ptr    *permID
	views  map[permView]bool
	fn     func()
	shared []permID `ioa:"shared"`
}

type permID int

// permSet is a set of permIDs 0–7, bit i for id i; permMap maps one through
// Set, as a state's permutation does its set type.
type permSet uint8

type permMap map[permID]permID

func (pi permMap) Set(s permSet) permSet {
	var out permSet
	for p := permID(0); p < 8; p++ {
		if s&(1<<p) != 0 {
			out |= 1 << image(pi, p)
		}
	}
	return out
}

type permView struct {
	seq    int
	origin permID
}

func (t *permToy) FixImage(any) { slices.Sort(t.sorted) }

func (g *permView) FixImage(orig any) {
	if o := orig.(*permView); o.seq == 0 {
		*g = *o
	}
}

// TestPermuteRules pins what Permute maps, what it re-sorts and what it
// carries over, on π = (0 1 2).
func TestPermuteRules(t *testing.T) {
	pi := permMap{0: 1, 1: 2, 2: 0}
	one := permID(1)
	x := &permToy{
		self: 0, n: 0, ids: []permID{0, 2}, sorted: []permID{0, 2},
		byID: map[permID]string{1: "a"}, set: map[permID]struct{}{2: {}}, bits: 1<<0 | 1<<2, val: permID(1), ptr: &one,
		views: map[permView]bool{{0, 0}: true, {1, 0}: false},
		fn:    func() {}, shared: []permID{0},
	}
	got := Permute(x, pi)
	want := &permToy{
		self: 1, n: 0, ids: []permID{1, 0}, sorted: []permID{0, 1},
		byID: map[permID]string{2: "a"}, set: map[permID]struct{}{0: {}}, bits: 1<<1 | 1<<0, val: permID(2), ptr: new(permID),
		views:  map[permView]bool{{0, 0}: true, {1, 1}: false},
		shared: []permID{0},
	}
	*want.ptr = 2
	got.fn, want.fn = nil, nil
	if Render(got) != Render(want) {
		t.Errorf("image\n  %s\nwant\n  %s", Render(got), Render(want))
	}
	if p := sharedRef(reflect.ValueOf(x), reflect.ValueOf(Permute(x, pi)), "x"); p != "" {
		t.Errorf("the image shares %s with its receiver", p)
	}
	if &Permute(x, pi).shared[0] != &x.shared[0] {
		t.Error("a shared field is copied, not carried over")
	}
	if Permute(x, pi).fn == nil {
		t.Error("a func field is dropped")
	}
	for _, c := range []struct {
		name string
		x    *permToy
	}{
		{"nil stays nil", &permToy{}},
		{"empty stays empty", &permToy{ids: []permID{}, byID: map[permID]string{}, set: map[permID]struct{}{}}},
	} {
		img := Permute(c.x, pi)
		if (img.ids == nil) != (c.x.ids == nil) || (img.byID == nil) != (c.x.byID == nil) ||
			(img.set == nil) != (c.x.set == nil) || img.val != nil || img.ptr != nil {
			t.Errorf("%s: image %s", c.name, Render(img))
		}
	}
	if v := Permute(any(&permView{1, 2}), pi); *v.(*permView) != (permView{1, 0}) {
		t.Errorf("an interface's value is not mapped: %v", v)
	}
}

// TestFpOfConcurrentFirstUse: goroutines that meet a type for the first
// time together see its plan, and the plans it reaches, complete. Each
// round builds fresh types, a map value type among them, since a type is
// compiled once per process.
func TestFpOfConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 50; round++ {
		field := func(name string, typ reflect.Type) reflect.Type {
			return reflect.StructOf([]reflect.StructField{{Name: fmt.Sprintf("%s%d", name, round), Type: typ}})
		}
		elem := field("E", reflect.TypeFor[uint16]())
		m := reflect.MakeMap(reflect.MapOf(reflect.TypeFor[string](), elem))
		m.SetMapIndex(reflect.ValueOf("a"), reflect.New(elem).Elem())
		v := reflect.New(field("M", m.Type())).Elem()
		v.Field(0).Set(m)
		toy := &fpToy{val: v.Interface(), seq: []int{round}}
		fps := make([]Fp, 8)
		var wg sync.WaitGroup
		for i := range fps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fps[i] = FpOf(toy)
			}()
		}
		wg.Wait()
		for _, fp := range fps[1:] {
			if fp != fps[0] {
				t.Fatalf("round %d: fingerprints differ: %v vs %v", round, fp, fps[0])
			}
		}
	}
}

// TestFingerprinterRelatedLinesSeparate reproduces the structured near-miss
// the collision audit caught during development: states whose map entries
// differ by small digit changes in two entries. With raw FNV entry hashes the
// additive fold let such differences cancel; the mix128 finalizer must keep
// them apart.
func TestFingerprinterRelatedLinesSeparate(t *testing.T) {
	a := FpOf(toyLines("cur.0", "3.0", "cur.1", "3.0"))
	b := FpOf(toyLines("cur.0", "0.0", "cur.1", "4.0"))
	if a == b {
		t.Errorf("related states collide: %v", a)
	}
	// Sweep single-digit value pairs; all 100 digests must be distinct.
	seen := make(map[Fp]string, 100)
	for x := '0'; x <= '9'; x++ {
		for y := '0'; y <= '9'; y++ {
			fp := FpOf(toyLines("cur.0", string(x), "cur.1", string(y)))
			key := string(x) + string(y)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("digit pair %s collides with %s", key, prev)
			}
			seen[fp] = key
		}
	}
}

// FuzzFpCanonical inserts arbitrary entries into a map in two orders and
// checks the two properties the exploration engine relies on: the
// fingerprint does not depend on the map's history (iteration order cannot
// leak in), and changing one entry's value changes it.
func FuzzFpCanonical(f *testing.F) {
	f.Add([]byte("cur=3.0\xffnext=1"), uint8(1))
	f.Add([]byte("a=\xffb=\xffc="), uint8(2))
	f.Add([]byte(""), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		var kv []string
		for _, line := range bytes.Split(data, []byte{0xff}) {
			k, v, _ := bytes.Cut(line, []byte{'='})
			kv = append(kv, string(k), string(v))
		}
		fwd, rotated := toyLines(kv...), toyLines()
		r := 2 * (int(rot) % (len(kv) / 2))
		rotated.add(kv[r:]...)
		rotated.add(kv[:r]...)
		rotated.add(kv...) // the later of two equal keys wins in both
		if FpOf(fwd) != FpOf(rotated) {
			t.Errorf("digest depends on insertion order: %v vs %v", FpOf(fwd), FpOf(rotated))
		}
		rotated.lines[kv[0]] += "x"
		if FpOf(fwd) == FpOf(rotated) {
			t.Errorf("a changed entry left the digest alone:\n%s\n%s", Render(fwd), Render(rotated))
		}
	})
}
