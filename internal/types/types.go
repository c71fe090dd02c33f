// Package types provides the mathematical foundations of the DVS paper
// (Section 2): process identifiers, totally ordered view identifiers, views,
// process sets, and the label/summary types used by the totally-ordered
// broadcast application (Section 6).
package types

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ProcID identifies a processor. The paper uses "processor" and "process"
// interchangeably; so do we.
type ProcID int

// String returns the decimal form of the process id.
func (p ProcID) String() string { return strconv.Itoa(int(p)) }

// ViewID is an element of the totally ordered set G of view identifiers.
// Identifiers are ordered lexicographically by (Seq, Origin); the
// distinguished least element g0 is the zero value.
type ViewID struct {
	Seq    uint64
	Origin ProcID
}

// ViewIDZero is g0, the distinguished least view identifier.
var ViewIDZero = ViewID{}

// Less reports whether a precedes b in the total order on G.
func (a ViewID) Less(b ViewID) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Origin < b.Origin
}

// Compare returns -1, 0, or +1 as a is less than, equal to, or greater
// than b.
func (a ViewID) Compare(b ViewID) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	default:
		return 0
	}
}

// Next returns the smallest identifier with sequence number a.Seq+1 and the
// given origin. It is strictly greater than a.
func (a ViewID) Next(origin ProcID) ViewID {
	return ViewID{Seq: a.Seq + 1, Origin: origin}
}

// IsZero reports whether a is g0.
func (a ViewID) IsZero() bool { return a == ViewIDZero }

// FixImage keeps an identifier of sequence number 0 (g0) fixed under every
// permutation: its origin is not a process reference (ioa.Imager).
func (a *ViewID) FixImage(orig any) {
	if o := orig.(*ViewID); o.Seq == 0 {
		*a = *o
	}
}

// String renders the identifier as "seq.origin".
func (a ViewID) String() string {
	return strconv.FormatUint(a.Seq, 10) + "." + strconv.Itoa(int(a.Origin))
}

// ProcSet is a finite set of process identifiers, a value: bit p is set iff
// p is a member, so a set is compared with == and copied by assignment. It
// holds the ids 0 to MaxProcs-1; CheckProc refuses the others where ids
// enter the system.
type ProcSet uint64

// MaxProcs bounds the process ids a ProcSet can hold: 0 to MaxProcs-1.
const MaxProcs = 64

// CheckProc reports an id a ProcSet cannot hold.
func CheckProc(p ProcID) error {
	if uint(p) >= MaxProcs {
		return fmt.Errorf("process id %d is outside 0–%d, the ids a process set holds", p, MaxProcs-1)
	}
	return nil
}

// NewProcSet builds a set from the given process ids.
func NewProcSet(ps ...ProcID) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s = s.With(p)
	}
	return s
}

// RangeProcSet returns the set {0, 1, ..., n-1}, for n up to MaxProcs.
func RangeProcSet(n int) ProcSet {
	if n == 0 {
		return 0
	}
	top := NewProcSet(ProcID(n - 1)) // refuses an id past the bound
	return top | (top - 1)
}

// Contains reports whether p is a member of s.
func (s ProcSet) Contains(p ProcID) bool { return uint(p) < MaxProcs && s&(1<<p) != 0 }

// With returns s ∪ {p}. It panics if p is outside 0 to MaxProcs-1.
func (s ProcSet) With(p ProcID) ProcSet {
	if err := CheckProc(p); err != nil {
		panic(err)
	}
	return s | 1<<p
}

// Without returns s \ {p}.
func (s ProcSet) Without(p ProcID) ProcSet {
	if uint(p) >= MaxProcs {
		return s
	}
	return s &^ (1 << p)
}

// Len returns |s|.
func (s ProcSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Intersect returns s ∩ t.
func (s ProcSet) Intersect(t ProcSet) ProcSet { return s & t }

// IntersectCount returns |s ∩ t|.
func (s ProcSet) IntersectCount(t ProcSet) int { return (s & t).Len() }

// Intersects reports whether s ∩ t is nonempty.
func (s ProcSet) Intersects(t ProcSet) bool { return s&t != 0 }

// MajorityOf reports the local check used by VS-TO-DVS (Figure 3):
// |s ∩ t| > |t|/2, i.e. s contains a strict majority of t.
func (s ProcSet) MajorityOf(t ProcSet) bool {
	return 2*s.IntersectCount(t) > t.Len()
}

// Subset reports whether s ⊆ t.
func (s ProcSet) Subset(t ProcSet) bool { return s&^t == 0 }

// Union returns s ∪ t.
func (s ProcSet) Union(t ProcSet) ProcSet { return s | t }

// First returns the least member of s, or -1 if s is empty.
func (s ProcSet) First() ProcID { return s.Next(-1) }

// Next returns the least member of s above p, or -1 if there is none. With
// First it walks s in increasing order:
//
//	for p := s.First(); p >= 0; p = s.Next(p) { … }
func (s ProcSet) Next(p ProcID) ProcID {
	rest := uint64(s) >> uint(p+1) // a shift by MaxProcs leaves 0
	if rest == 0 {
		return -1
	}
	return p + 1 + ProcID(bits.TrailingZeros64(rest))
}

// Sorted returns the members of s in increasing order.
func (s ProcSet) Sorted() []ProcID {
	out := make([]ProcID, 0, s.Len())
	for p := s.First(); p >= 0; p = s.Next(p) {
		out = append(out, p)
	}
	return out
}

// String renders s canonically, e.g. "{0,2,5}".
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for p := s.First(); p >= 0; p = s.Next(p) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// View is a pair <g, P> of a view identifier and a nonempty membership set,
// a value like its parts: views are copied by assignment and compared with ==.
type View struct {
	ID      ViewID
	Members ProcSet
}

// NewView builds a view from an identifier and members.
func NewView(id ViewID, members ...ProcID) View {
	return View{ID: id, Members: NewProcSet(members...)}
}

// InitialView returns the distinguished initial view v0 = <g0, P0>.
func InitialView(members ProcSet) View {
	return View{ID: ViewIDZero, Members: members}
}

// Contains reports whether p ∈ v.set.
func (v View) Contains(p ProcID) bool { return v.Members.Contains(p) }

// String renders the view as "<seq.origin,{members}>".
func (v View) String() string {
	return "<" + v.ID.String() + "," + v.Members.String() + ">"
}

// SortViews orders views in place by increasing identifier.
func SortViews(vs []View) {
	slices.SortFunc(vs, func(a, b View) int {
		if a.ID.Less(b.ID) {
			return -1
		}
		if b.ID.Less(a.ID) {
			return 1
		}
		return 0
	})
}
