package ioa

import (
	"hash/fnv"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// FpOf computes a's fingerprint from its type, by a walker compiled once
// per type (DESIGN.md §6.2): every field in declaration order bar func, chan
// and ioa:"shared" ones; a pointer's nil mark or target; an interface's type,
// then value; a slice's length, then elements; a map's entries hashed apart
// and summed, bar those whose value hashes as zero unless the map is a set.
// The state must be a tree: a pointer cycle never ends.
func FpOf(a Automaton) Fp {
	h := hashers.Get().(*hasher)
	h.hi, h.lo = fnv128OffsetHi, fnv128OffsetLo
	h.root = a
	automatonPlan.fn(h, unsafe.Pointer(&h.root))
	h.root = nil
	hi, lo := mix128(h.hi, h.lo)
	hashers.Put(h)
	return Fp{hi, lo}
}

// hasher is one walk's FNV-1a-128 stream and its holders, kept from walk to
// walk.
type hasher struct {
	hi, lo uint64
	root   Automaton
	held   holders
}

var hashers = sync.Pool{New: func() any { return new(hasher) }}

// holders are addressable values by plan id: as many per type as one walk
// has used at once. Reflection gives no pointer to a map entry or an
// interface's value.
type holders [][]*holder

type holder struct {
	v    reflect.Value // addressable
	p    unsafe.Pointer
	busy bool
}

// take returns a holder for plan id's type t that no walk further up is using.
func (hs *holders) take(id int, t reflect.Type) *holder {
	for len(*hs) <= id {
		*hs = append(*hs, nil)
	}
	for _, x := range (*hs)[id] {
		if !x.busy {
			x.busy = true
			return x
		}
	}
	v := reflect.New(t).Elem()
	x := &holder{v: v, p: v.Addr().UnsafePointer(), busy: true}
	(*hs)[id] = append((*hs)[id], x)
	return x
}

// mapAt returns a holder of plan id's map type t holding the map at p (a
// reflect.NewAt would look up the pointer type of an unnamed map); drop
// puts it back.
func (hs *holders) mapAt(id int, t reflect.Type, p unsafe.Pointer) *holder {
	x := hs.take(id, t)
	*(*unsafe.Pointer)(x.p) = *(*unsafe.Pointer)(p)
	return x
}

func (x *holder) drop() { *(*unsafe.Pointer)(x.p), x.busy = nil, false }

// word is one FNV-1a-128 step over a 64-bit symbol: a byte, a tag or a sum.
func (h *hasher) word(u uint64) {
	h.lo ^= u
	hi, lo := bits.Mul64(h.lo, fnv128PrimeLo)
	h.hi = h.hi*fnv128PrimeLo + h.lo<<24 + hi
	h.lo = lo
}

func (h *hasher) uvarint(u uint64) {
	for ; u >= 0x80; u >>= 7 {
		h.word(u&0x7f | 0x80)
	}
	h.word(u)
}

// plan hashes the value of type t at p.
type plan struct {
	t    reflect.Type
	fn   func(h *hasher, p unsafe.Pointer)
	id   int    // t's index in hasher.held
	tag  uint64 // t's name, written before an interface's value
	zero hasher // a fresh stream after t's zero value
}

var (
	plans         sync.Map // reflect.Type → *plan, once complete
	compileMu     sync.Mutex
	building      = map[reflect.Type]*plan{} // under compileMu
	nPlans        int
	automatonPlan = planOf(reflect.TypeFor[Automaton]())
)

// planOf returns t's plan, compiling it and the plans it needs first. They
// are published complete: a walk on another goroutine may be looking.
func planOf(t reflect.Type) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	pl := compile(t)
	for t, b := range building {
		b.zero = hasher{hi: fnv128OffsetHi, lo: fnv128OffsetLo}
		b.fn(&b.zero, reflect.New(t).UnsafePointer())
	}
	for t, b := range building { // only now: each reaches the others
		plans.Store(t, b)
	}
	clear(building)
	return pl
}

// numFn writes a number as a varint; a negative one sign-extends to ten bytes.
func numFn[T int8 | int16 | int32 | int | int64 | uint8 | uint16 | uint32 | uint | uint64 | uintptr](h *hasher, p unsafe.Pointer) {
	h.uvarint(uint64(*(*T)(p)))
}

func skipFn(*hasher, unsafe.Pointer) {} // an address, not automaton state

// scalars hash the kinds that hold no other value; a float hashes its bits.
var scalars = map[reflect.Kind]func(*hasher, unsafe.Pointer){
	reflect.Bool: numFn[uint8], reflect.Int: numFn[int], reflect.Int8: numFn[int8],
	reflect.Int16: numFn[int16], reflect.Int32: numFn[int32], reflect.Int64: numFn[int64],
	reflect.Uint: numFn[uint], reflect.Uint8: numFn[uint8], reflect.Uint16: numFn[uint16],
	reflect.Uint32: numFn[uint32], reflect.Uint64: numFn[uint64], reflect.Uintptr: numFn[uintptr],
	reflect.Float32: numFn[uint32], reflect.Float64: numFn[uint64],
	reflect.Func: skipFn, reflect.Chan: skipFn, reflect.UnsafePointer: skipFn,
	reflect.String: func(h *hasher, p unsafe.Pointer) {
		s := *(*string)(p)
		h.uvarint(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h.word(uint64(s[i]))
		}
	},
}

// compile builds t's plan, entering it in building before its elements'
// plans so that a recursive type refers to itself. compileMu is held.
func compile(t reflect.Type) *plan {
	if pl, ok := plans.Load(t); ok {
		return pl.(*plan)
	} else if pl, ok := building[t]; ok {
		return pl
	}
	tag := fnv.New64a()
	tag.Write([]byte(t.PkgPath() + " " + t.String()))
	pl := &plan{t: t, id: nPlans, tag: tag.Sum64()}
	nPlans++
	building[t] = pl
	if fn, ok := scalars[t.Kind()]; ok {
		pl.fn = fn
		return pl
	}
	switch t.Kind() {
	case reflect.Pointer:
		elem := compile(t.Elem())
		pl.fn = func(h *hasher, p unsafe.Pointer) {
			if q := *(*unsafe.Pointer)(p); q == nil {
				h.word(0)
			} else {
				h.word(1)
				elem.fn(h, q)
			}
		}
	case reflect.Array, reflect.Slice:
		elem, size, slice, n := compile(t.Elem()), t.Elem().Size(), t.Kind() == reflect.Slice, 0
		if !slice {
			n = t.Len()
		}
		pl.fn = func(h *hasher, p unsafe.Pointer) {
			data, n := p, n
			if slice {
				data, n = *(*unsafe.Pointer)(p), (*[2]int)(p)[1] // data, len
			}
			h.uvarint(uint64(n))
			for i := 0; i < n; i++ {
				elem.fn(h, unsafe.Add(data, uintptr(i)*size))
			}
		}
	case reflect.Struct:
		var offs []uintptr
		var fields []*plan
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Tag.Get("ioa") != "shared" { // func and chan fields write nothing
				offs, fields = append(offs, f.Offset), append(fields, compile(f.Type))
			}
		}
		pl.fn = func(h *hasher, p unsafe.Pointer) {
			for i, f := range fields {
				f.fn(h, unsafe.Add(p, offs[i]))
			}
		}
	case reflect.Interface:
		pl.fn = func(h *hasher, p unsafe.Pointer) {
			if *(*unsafe.Pointer)(p) == nil { // no type word: a nil interface
				h.word(0)
				return
			}
			e := reflect.NewAt(t, p).Elem().Elem()
			dyn := planOf(e.Type())
			h.word(dyn.tag)
			x := h.held.take(dyn.id, dyn.t)
			x.v.Set(e)
			dyn.fn(h, x.p)
			x.busy = false
		}
	case reflect.Map:
		key, elem := compile(t.Key()), compile(t.Elem())
		pl.fn = func(h *hasher, p unsafe.Pointer) {
			m := h.held.mapAt(pl.id, t, p)
			h.entries(m.v, key, elem)
			m.drop()
		}
	default:
		panic("ioa: cannot fingerprint a " + t.String())
	}
	return pl
}

// entries hashes each entry of m on a fresh stream, value first, and
// writes the count and the sum of the mixed hashes of those it keeps.
func (h *hasher) entries(m reflect.Value, key, elem *plan) {
	if m.Len() == 0 {
		h.word(0)
		return
	}
	set, hi, lo := elem.t.Size() == 0, h.hi, h.lo
	k, v := h.held.take(key.id, key.t), h.held.take(elem.id, elem.t)
	var n, shi, slo, c uint64
	for it := m.MapRange(); it.Next(); {
		h.hi, h.lo = fnv128OffsetHi, fnv128OffsetLo
		if !set {
			v.v.SetIterValue(it)
			if elem.fn(h, v.p); h.hi == elem.zero.hi && h.lo == elem.zero.lo {
				continue
			}
		}
		k.v.SetIterKey(it)
		key.fn(h, k.p)
		mhi, mlo := mix128(h.hi, h.lo)
		slo, c = bits.Add64(slo, mlo, 0)
		shi += mhi + c
		n++
	}
	k.busy, v.busy, h.hi, h.lo = false, false, hi, lo
	h.uvarint(n)
	if n > 0 {
		h.word(shi)
		h.word(slo)
	}
}
