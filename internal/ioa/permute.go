package ioa

import (
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Imager is implemented, on its pointer, by a state type whose image under a
// permutation is not its structural image: the copier builds that, then
// calls FixImage on it with a pointer to the original.
type Imager interface{ FixImage(orig any) }

// Perm is a permutation of the ids K, as a map that fixes the ids outside
// its domain, with Set giving the image of a set S of them: a set type is
// opaque to the copier, which maps each S it meets through Set.
type Perm[K, S comparable] interface {
	~map[K]K
	Set(S) S
}

// Permute returns π(x): a deep copy of x with every value of π's id type K
// and set type S mapped through π (DESIGN.md §6.2).
func Permute[T any, P Perm[K, S], K, S comparable](x T, pi P) T { return images(x, []P{pi})[0] }

// images returns the images of x under pis, built in one walk of x by a
// copier compiled once per type, as FpOf's walker is. An id or a set is
// mapped wherever it is: a field, a map key, a slice element, an interface's
// value; ids outside a permutation's domain are fixed. Maps are re-keyed;
// nil stays nil and empty stays empty. Fields tagged ioa:"shared", func and
// chan values and interface values holding no id or reference (messages are
// immutable) are carried over; nothing else is shared with x or between
// images. The state must be a tree.
func images[T any, P Perm[K, S], K, S comparable](x T, pis []P) []T {
	out := make([]T, len(pis))
	if len(pis) == 0 {
		return out
	}
	c := copiers.Get().(*copier)
	c.pis, c.n = pis, len(pis)
	dsts := c.push()
	for j := range out {
		dsts[j] = unsafe.Pointer(&out[j])
	}
	rules := idRules{reflect.TypeFor[K](), reflect.TypeFor[S](), reflect.TypeFor[P](), imageID[P, K], imageSet[P, K, S]}
	imagePlanOf(reflect.TypeFor[T](), rules).fn(c, dsts, 0, unsafe.Pointer(&x))
	c.pop()
	c.pis = nil
	copiers.Put(c)
	return out
}

// An imageFn writes the images of the value at src at off in each of dsts.
type imageFn func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer)

// idRules are the images of an id and of a set of ids, typed by P.
type idRules struct {
	id, set, p  reflect.Type
	img, setImg imageFn
}

func imageID[P ~map[K]K, K comparable](c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	for j, pi := range c.pis.([]P) {
		*(*K)(unsafe.Add(dsts[j], off)) = image(pi, *(*K)(src))
	}
}

func image[P ~map[K]K, K comparable](pi P, k K) K {
	if q, ok := pi[k]; ok {
		return q
	}
	return k
}

// imageSet maps a set of ids through each permutation's Set.
func imageSet[P Perm[K, S], K, S comparable](c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	for j, pi := range c.pis.([]P) {
		*(*S)(unsafe.Add(dsts[j], off)) = pi.Set(*(*S)(src))
	}
}

// copier is one walk's permutations, a stack of the addresses its images
// are written at, its holders and the map images being filled.
type copier struct {
	pis   any // a []P
	n     int
	stack []unsafe.Pointer
	held  holders
	hs    []*holder
	maps  []reflect.Value
}

var copiers = sync.Pool{New: func() any { return new(copier) }}

// push returns n slots, each written before it is read; older ones stay valid.
func (c *copier) push() []unsafe.Pointer {
	c.stack = slices.Grow(c.stack, c.n)[:len(c.stack)+c.n]
	return c.stack[len(c.stack)-c.n:]
}

func (c *copier) pop() { c.stack = c.stack[:len(c.stack)-c.n] }

// takeN returns n holders of pl's type and their addresses.
func (c *copier) takeN(pl *imagePlan) ([]*holder, []unsafe.Pointer) {
	ps := c.push()
	for j := range ps {
		x := c.held.take(pl.id, pl.t)
		c.hs, ps[j] = append(c.hs, x), x.p
	}
	return c.hs[len(c.hs)-c.n:], ps
}

func (c *copier) dropN(xs []*holder) {
	for _, x := range xs {
		x.busy = false
	}
	c.hs = c.hs[:len(c.hs)-c.n]
	c.pop()
}

// imagePlan writes the images of a value of type t.
type imagePlan struct {
	t     reflect.Type
	fn    imageFn
	id    int  // t's index in copier.held
	plain bool // holds no id, map, slice, pointer, interface or Imager
}

type imageKey struct{ t, p reflect.Type }

var (
	imagePlans    sync.Map                        // imageKey → *imagePlan, once complete
	imageBuilding = map[reflect.Type]*imagePlan{} // under compileMu
	nImagePlans   int
	imagerType    = reflect.TypeFor[Imager]()
	noElems       [0]byte // where an empty slice's images point
)

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// imagePlanOf returns t's plan under rules, compiling it and the plans it
// needs first; like planOf, it publishes them complete.
func imagePlanOf(t reflect.Type, rules idRules) *imagePlan {
	if pl, ok := imagePlans.Load(imageKey{t, rules.p}); ok {
		return pl.(*imagePlan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	pl := compileImage(t, rules)
	for t, b := range imageBuilding {
		imagePlans.Store(imageKey{t, rules.p}, b)
	}
	clear(imageBuilding)
	return pl
}

func copyFn[T any](_ *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	for _, d := range dsts {
		*(*T)(unsafe.Add(d, off)) = *(*T)(src)
	}
}

// numbers copy the kinds Bool through Complex128 by their size.
var numbers = map[uintptr]imageFn{
	1: copyFn[uint8], 2: copyFn[uint16], 4: copyFn[uint32], 8: copyFn[uint64], 16: copyFn[complex128],
}

// verbatim copies a value of any type as it is, references included.
func verbatim(t reflect.Type) imageFn {
	return func(_ *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
		for _, d := range dsts {
			reflect.NewAt(t, unsafe.Add(d, off)).Elem().Set(reflect.NewAt(t, src).Elem())
		}
	}
}

// fixerOf calls (*t).FixImage on each image, building the interface values
// from type words taken once: reflection costs more than a view id's copy.
func fixerOf(t reflect.Type) imageFn {
	orig := reflect.New(t).Interface()
	img := orig.(Imager)
	typ, itab := (*[2]unsafe.Pointer)(unsafe.Pointer(&orig))[0], (*[2]unsafe.Pointer)(unsafe.Pointer(&img))[0]
	return func(_ *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
		var orig any
		*(*[2]unsafe.Pointer)(unsafe.Pointer(&orig)) = [2]unsafe.Pointer{typ, src}
		for _, d := range dsts {
			var img Imager
			*(*[2]unsafe.Pointer)(unsafe.Pointer(&img)) = [2]unsafe.Pointer{itab, unsafe.Add(d, off)}
			img.FixImage(orig)
		}
	}
}

// compileImage builds t's plan, entering it in imageBuilding before its
// elements' plans so that a recursive type refers to itself. compileMu is held.
func compileImage(t reflect.Type, rules idRules) *imagePlan {
	if pl, ok := imagePlans.Load(imageKey{t, rules.p}); ok {
		return pl.(*imagePlan)
	} else if pl, ok := imageBuilding[t]; ok {
		return pl
	}
	pl := &imagePlan{t: t, id: nImagePlans}
	nImagePlans++
	imageBuilding[t] = pl
	switch k := t.Kind(); {
	case t == rules.id:
		pl.fn = rules.img
	case t == rules.set:
		pl.fn = rules.setImg
	case k >= reflect.Bool && k <= reflect.Complex128:
		pl.fn, pl.plain = numbers[t.Size()], true
	case k == reflect.String:
		pl.fn, pl.plain = copyFn[string], true
	case k == reflect.Func || k == reflect.Chan || k == reflect.UnsafePointer:
		pl.fn, pl.plain = copyFn[unsafe.Pointer], true // an address, not automaton state
	case k == reflect.Pointer:
		elem := compileImage(t.Elem(), rules)
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			q, to := *(*unsafe.Pointer)(src), c.push()
			for j, d := range dsts {
				if to[j] = nil; q != nil {
					to[j] = reflect.New(elem.t).UnsafePointer()
				}
				*(*unsafe.Pointer)(unsafe.Add(d, off)) = to[j]
			}
			if q != nil {
				elem.fn(c, to, 0, q)
			}
			c.pop()
		}
	case k == reflect.Array:
		elem, size, n := compileImage(t.Elem(), rules), t.Elem().Size(), t.Len()
		pl.plain = elem.plain
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			for i := uintptr(0); i < uintptr(n); i++ {
				elem.fn(c, dsts, off+i*size, unsafe.Add(src, i*size))
			}
		}
	case k == reflect.Slice:
		elem := compileImage(t.Elem(), rules)
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			c.slice(pl, elem, dsts, off, src)
		}
	case k == reflect.Struct:
		var offs []uintptr
		var fields []imageFn
		pl.plain = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fn := verbatim(f.Type) // shared by design
			if f.Tag.Get("ioa") != "shared" {
				fp := compileImage(f.Type, rules)
				fn, pl.plain = fp.fn, pl.plain && fp.plain
			}
			offs, fields = append(offs, f.Offset), append(fields, fn)
		}
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			for i, f := range fields {
				f(c, dsts, off+offs[i], unsafe.Add(src, offs[i]))
			}
		}
	case k == reflect.Interface:
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			c.iface(t, rules, dsts, off, src)
		}
	case k == reflect.Map:
		key, elem := compileImage(t.Key(), rules), compileImage(t.Elem(), rules)
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			c.entries(pl, key, elem, dsts, off, src)
		}
	default:
		panic("ioa: cannot permute a " + t.String())
	}
	if reflect.PointerTo(t).Implements(imagerType) {
		structural, fix := pl.fn, fixerOf(t)
		pl.fn = func(c *copier, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
			structural(c, dsts, off, src)
			fix(c, dsts, off, src)
		}
		pl.plain = false
	}
	return pl
}

// slice writes fresh arrays holding the images of the elements.
func (c *copier) slice(pl, elem *imagePlan, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	from, to := (*sliceHeader)(src), c.push()
	for j, d := range dsts {
		hdr := (*sliceHeader)(unsafe.Add(d, off))
		if *hdr = (sliceHeader{}); from.len > 0 {
			h := c.held.take(pl.id, pl.t)
			*(*sliceHeader)(h.p) = sliceHeader{}
			h.v.Grow(from.len)
			h.v.SetLen(from.len)
			*hdr, *(*sliceHeader)(h.p), h.busy = *(*sliceHeader)(h.p), sliceHeader{}, false
		} else if from.data != nil {
			hdr.data = unsafe.Pointer(&noElems) // empty, not nil
		}
		to[j] = hdr.data
	}
	for i, size := uintptr(0), elem.t.Size(); i < uintptr(from.len); i++ {
		elem.fn(c, to, i*size, unsafe.Add(from.data, i*size))
	}
	c.pop()
}

// iface writes the images of the dynamic value, or the value itself if that
// holds no id or reference.
func (c *copier) iface(t reflect.Type, rules idRules, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	var dyn *imagePlan
	if *(*unsafe.Pointer)(src) != nil { // a type word: not a nil interface
		dyn = imagePlanOf(reflect.NewAt(t, src).Elem().Elem().Type(), rules)
	}
	if dyn == nil || dyn.plain {
		for _, d := range dsts {
			*(*[2]unsafe.Pointer)(unsafe.Add(d, off)) = *(*[2]unsafe.Pointer)(src)
		}
		return
	}
	x := c.held.take(dyn.id, dyn.t)
	x.v.Set(reflect.NewAt(t, src).Elem().Elem())
	ys, ps := c.takeN(dyn)
	dyn.fn(c, ps, 0, x.p)
	for j, d := range dsts {
		reflect.NewAt(t, unsafe.Add(d, off)).Elem().Set(ys[j].v)
	}
	c.dropN(ys)
	x.busy = false
}

// entries writes fresh maps holding the images of the entries; a plain value
// is copied once for all of them.
func (c *copier) entries(pl, key, elem *imagePlan, dsts []unsafe.Pointer, off uintptr, src unsafe.Pointer) {
	if *(*unsafe.Pointer)(src) == nil {
		copyFn[unsafe.Pointer](c, dsts, off, src)
		return
	}
	m := c.held.mapAt(pl.id, pl.t, src)
	for _, d := range dsts {
		c.maps = append(c.maps, reflect.MakeMapWithSize(pl.t, m.v.Len()))
		*(*unsafe.Pointer)(unsafe.Add(d, off)) = c.maps[len(c.maps)-1].UnsafePointer()
	}
	outs := c.maps[len(c.maps)-c.n:]
	if m.v.Len() > 0 {
		k, v := c.held.take(key.id, key.t), c.held.take(elem.id, elem.t)
		iks, kps := c.takeN(key)
		ivs, vps := []*holder(nil), []unsafe.Pointer(nil)
		if !elem.plain {
			ivs, vps = c.takeN(elem)
		}
		for it := m.v.MapRange(); it.Next(); {
			k.v.SetIterKey(it)
			key.fn(c, kps, 0, k.p)
			if elem.t.Size() > 0 {
				v.v.SetIterValue(it)
			}
			if ivs != nil {
				elem.fn(c, vps, 0, v.p)
			}
			for j, out := range outs {
				iv := v
				if ivs != nil {
					iv = ivs[j]
				}
				out.SetMapIndex(iks[j].v, iv.v)
			}
		}
		if ivs != nil {
			c.dropN(ivs)
		}
		c.dropN(iks)
		k.busy, v.busy = false, false
	}
	clear(outs)
	c.maps = c.maps[:len(c.maps)-c.n]
	m.drop()
}
