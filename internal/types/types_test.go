package types

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestViewIDLess(t *testing.T) {
	cases := []struct {
		a, b ViewID
		want bool
	}{
		{ViewID{0, 0}, ViewID{0, 0}, false},
		{ViewID{0, 0}, ViewID{0, 1}, true},
		{ViewID{0, 5}, ViewID{1, 0}, true},
		{ViewID{2, 3}, ViewID{2, 3}, false},
		{ViewID{2, 3}, ViewID{2, 4}, true},
		{ViewID{3, 0}, ViewID{2, 9}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%s.Less(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestViewIDCompare(t *testing.T) {
	a, b := ViewID{1, 2}, ViewID{1, 3}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare inconsistent with Less")
	}
}

func TestViewIDTotalOrderProperty(t *testing.T) {
	// Trichotomy and transitivity over random triples.
	f := func(s1, s2, s3 uint8, o1, o2, o3 uint8) bool {
		a := ViewID{uint64(s1), ProcID(o1)}
		b := ViewID{uint64(s2), ProcID(o2)}
		c := ViewID{uint64(s3), ProcID(o3)}
		tri := 0
		if a.Less(b) {
			tri++
		}
		if b.Less(a) {
			tri++
		}
		if a == b {
			tri++
		}
		if tri != 1 {
			return false
		}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestViewIDNext(t *testing.T) {
	a := ViewID{5, 3}
	n := a.Next(1)
	if !a.Less(n) {
		t.Errorf("Next(%s) = %s not greater", a, n)
	}
	if n.Seq != 6 || n.Origin != 1 {
		t.Errorf("Next = %s, want 6.1", n)
	}
	if !ViewIDZero.IsZero() || n.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestProcSetBasics(t *testing.T) {
	s := NewProcSet(3, 1, 4, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(4) || s.Contains(2) || s.Contains(-1) || s.Contains(MaxProcs) {
		t.Error("Contains wrong")
	}
	s = s.With(2).Without(3).Without(MaxProcs)
	if got, want := s.Sorted(), []ProcID{1, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	if s.String() != "{1,2,4}" {
		t.Errorf("String = %q", s.String())
	}
	var walked []ProcID
	for p := s.First(); p >= 0; p = s.Next(p) {
		walked = append(walked, p)
	}
	if !slices.Equal(walked, s.Sorted()) || NewProcSet().First() != -1 {
		t.Errorf("First/Next walk %v, want %v", walked, s.Sorted())
	}
}

// TestProcSetBounds: a set holds exactly the ids 0 to MaxProcs-1; With and
// RangeProcSet refuse any other rather than shifting it into some other
// member, and CheckProc names the bound.
func TestProcSetBounds(t *testing.T) {
	top := NewProcSet(0, MaxProcs-1)
	if top.Len() != 2 || !top.Contains(MaxProcs-1) || top.First() != 0 || top.Next(0) != MaxProcs-1 || top.Next(MaxProcs-1) != -1 {
		t.Errorf("the extreme ids: %s", top)
	}
	if RangeProcSet(MaxProcs).Len() != MaxProcs || RangeProcSet(0) != NewProcSet() {
		t.Error("RangeProcSet at the bounds")
	}
	for _, p := range []ProcID{-1, MaxProcs, 1000000} {
		if CheckProc(p) == nil {
			t.Errorf("CheckProc(%d) accepts", p)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("With(%d) did not panic", p)
				}
			}()
			NewProcSet().With(p)
		}()
	}
	if CheckProc(0) != nil || CheckProc(MaxProcs-1) != nil {
		t.Error("CheckProc refuses an id in range")
	}
	defer func() {
		if recover() == nil {
			t.Error("RangeProcSet(MaxProcs+1) did not panic")
		}
	}()
	RangeProcSet(MaxProcs + 1)
}

func TestRangeProcSet(t *testing.T) {
	s := RangeProcSet(4)
	if s.Len() != 4 || !s.Contains(0) || !s.Contains(3) || s.Contains(4) {
		t.Errorf("RangeProcSet(4) = %s", s)
	}
}

// TestProcSetCloneIndependence: sets are values, so a copy made by
// assignment is independent and == compares membership.
func TestProcSetCloneIndependence(t *testing.T) {
	s := NewProcSet(1, 2)
	c := s
	c = c.With(3)
	if s.Contains(3) {
		t.Error("a copy is not independent")
	}
	if s != NewProcSet(2, 1) {
		t.Error("== wrong")
	}
	if s == c {
		t.Error("== should be false after divergence")
	}
}

func TestProcSetIntersect(t *testing.T) {
	a := NewProcSet(1, 2, 3, 4)
	b := NewProcSet(3, 4, 5)
	got := a.Intersect(b)
	if got != NewProcSet(3, 4) {
		t.Errorf("Intersect = %s", got)
	}
	if a.IntersectCount(b) != 2 {
		t.Error("IntersectCount wrong")
	}
	if !a.Intersects(b) || a.Intersects(NewProcSet(9)) {
		t.Error("Intersects wrong")
	}
}

func TestProcSetMajorityOf(t *testing.T) {
	u := NewProcSet(0, 1, 2, 3, 4)
	if NewProcSet(0, 1).MajorityOf(u) {
		t.Error("2 of 5 is not a majority")
	}
	if !NewProcSet(0, 1, 2).MajorityOf(u) {
		t.Error("3 of 5 is a majority")
	}
	// Exactly half is not a strict majority.
	u4 := NewProcSet(0, 1, 2, 3)
	if NewProcSet(0, 1).MajorityOf(u4) {
		t.Error("2 of 4 is not a strict majority")
	}
}

func TestProcSetSubsetUnion(t *testing.T) {
	a := NewProcSet(1, 2)
	b := NewProcSet(1, 2, 3)
	if !a.Subset(b) || b.Subset(a) {
		t.Error("Subset wrong")
	}
	u := a.Union(NewProcSet(4))
	if u != NewProcSet(1, 2, 4) {
		t.Errorf("Union = %s", u)
	}
	if !NewProcSet().Subset(a) {
		t.Error("empty set is a subset of everything")
	}
}

func TestProcSetIntersectionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	procs := RangeProcSet(8).Sorted()
	for i := 0; i < 200; i++ {
		a := RandomSubset(rng, procs)
		b := RandomSubset(rng, procs)
		if a.IntersectCount(b) != b.IntersectCount(a) {
			t.Fatal("IntersectCount not symmetric")
		}
		if a.Intersects(b) != (a.IntersectCount(b) > 0) {
			t.Fatal("Intersects inconsistent")
		}
		inter := a.Intersect(b)
		if !inter.Subset(a) || !inter.Subset(b) {
			t.Fatal("intersection not a subset")
		}
	}
}

func TestViewBasics(t *testing.T) {
	v := NewView(ViewID{1, 0}, 0, 1, 2)
	if !v.Contains(1) || v.Contains(5) {
		t.Error("Contains wrong")
	}
	c := v
	c.Members = c.Members.With(5)
	if v.Contains(5) {
		t.Error("a copy is not independent")
	}
	if v.String() != "<1.0,{0,1,2}>" {
		t.Errorf("String = %q", v.String())
	}
	if v != NewView(ViewID{1, 0}, 2, 1, 0) {
		t.Error("== wrong")
	}
	if v == NewView(ViewID{1, 1}, 0, 1, 2) {
		t.Error("== ignores id")
	}
}

func TestInitialView(t *testing.T) {
	p0 := NewProcSet(0, 1)
	v0 := InitialView(p0)
	if !v0.ID.IsZero() {
		t.Error("initial view id must be g0")
	}
	p0 = p0.With(9)
	if v0.Contains(9) {
		t.Error("InitialView must copy the membership")
	}
}

func TestSortViews(t *testing.T) {
	vs := []View{
		NewView(ViewID{3, 0}, 0),
		NewView(ViewID{1, 1}, 1),
		NewView(ViewID{1, 0}, 2),
	}
	SortViews(vs)
	if vs[0].ID != (ViewID{1, 0}) || vs[2].ID != (ViewID{3, 0}) {
		t.Errorf("SortViews = %v", vs)
	}
}

func TestRandomSubsetNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	procs := RangeProcSet(3).Sorted()
	for i := 0; i < 100; i++ {
		if RandomSubset(rng, procs).Len() == 0 {
			t.Fatal("RandomSubset returned empty set")
		}
	}
}

// TestPermSet: a permutation maps a set member by member; ids outside its
// domain are fixed.
func TestPermSet(t *testing.T) {
	pi := Perm{0: 1, 1: 2, 2: 0}
	for _, c := range []struct{ in, want ProcSet }{
		{NewProcSet(), NewProcSet()},
		{NewProcSet(0), NewProcSet(1)},
		{NewProcSet(0, 2, 5), NewProcSet(1, 0, 5)},
		{NewProcSet(0, 1, 2), NewProcSet(0, 1, 2)},
	} {
		if got := pi.Set(c.in); got != c.want {
			t.Errorf("π(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}
