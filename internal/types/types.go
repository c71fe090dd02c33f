// Package types provides the mathematical foundations of the DVS paper
// (Section 2): process identifiers, totally ordered view identifiers, views,
// process sets, and the label/summary types used by the totally-ordered
// broadcast application (Section 6).
package types

import (
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

// String renders the identifier as "seq.origin".
func (a ViewID) String() string {
	return strconv.FormatUint(a.Seq, 10) + "." + strconv.Itoa(int(a.Origin))
}

// ProcSet is a finite set of process identifiers.
type ProcSet map[ProcID]struct{}

// NewProcSet builds a set from the given process ids.
func NewProcSet(ps ...ProcID) ProcSet {
	s := make(ProcSet, len(ps))
	for _, p := range ps {
		s[p] = struct{}{}
	}
	return s
}

// RangeProcSet returns the set {0, 1, ..., n-1}.
func RangeProcSet(n int) ProcSet {
	s := make(ProcSet, n)
	for i := 0; i < n; i++ {
		s[ProcID(i)] = struct{}{}
	}
	return s
}

// Contains reports whether p is a member of s.
func (s ProcSet) Contains(p ProcID) bool {
	_, ok := s[p]
	return ok
}

// Add inserts p into s.
func (s ProcSet) Add(p ProcID) { s[p] = struct{}{} }

// Remove deletes p from s.
func (s ProcSet) Remove(p ProcID) { delete(s, p) }

// Len returns |s|.
func (s ProcSet) Len() int { return len(s) }

// Clone returns an independent copy of s.
func (s ProcSet) Clone() ProcSet {
	c := make(ProcSet, len(s))
	for p := range s {
		c[p] = struct{}{}
	}
	return c
}

// Equal reports whether s and t contain exactly the same processes.
func (s ProcSet) Equal(t ProcSet) bool {
	if len(s) != len(t) {
		return false
	}
	for p := range s {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Intersect returns s ∩ t.
func (s ProcSet) Intersect(t ProcSet) ProcSet {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	out := make(ProcSet)
	for p := range small {
		if large.Contains(p) {
			out[p] = struct{}{}
		}
	}
	return out
}

// IntersectCount returns |s ∩ t| without allocating the intersection.
func (s ProcSet) IntersectCount(t ProcSet) int {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	n := 0
	for p := range small {
		if large.Contains(p) {
			n++
		}
	}
	return n
}

// Intersects reports whether s ∩ t is nonempty.
func (s ProcSet) Intersects(t ProcSet) bool { return s.IntersectCount(t) > 0 }

// MajorityOf reports the local check used by VS-TO-DVS (Figure 3):
// |s ∩ t| > |t|/2, i.e. s contains a strict majority of t.
func (s ProcSet) MajorityOf(t ProcSet) bool {
	return 2*s.IntersectCount(t) > t.Len()
}

// Subset reports whether s ⊆ t.
func (s ProcSet) Subset(t ProcSet) bool {
	for p := range s {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s ProcSet) Union(t ProcSet) ProcSet {
	out := s.Clone()
	for p := range t {
		out[p] = struct{}{}
	}
	return out
}

// Sorted returns the members of s in increasing order.
func (s ProcSet) Sorted() []ProcID {
	out := make([]ProcID, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// String renders s canonically, e.g. "{0,2,5}".
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Sorted() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// View is a pair <g, P> of a view identifier and a nonempty membership set.
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
	return View{ID: ViewIDZero, Members: members.Clone()}
}

// Contains reports whether p ∈ v.set.
func (v View) Contains(p ProcID) bool { return v.Members.Contains(p) }

// Clone returns an independent copy of v.
func (v View) Clone() View {
	return View{ID: v.ID, Members: v.Members.Clone()}
}

// Equal reports whether v and w have the same identifier and membership.
func (v View) Equal(w View) bool {
	return v.ID == w.ID && v.Members.Equal(w.Members)
}

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
