package types

import (
	"testing"
	"testing/quick"
)

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, nil, true},
		{nil, []int{1}, true},
		{[]int{1}, nil, false},
		{[]int{1, 2}, []int{1, 2, 3}, true},
		{[]int{1, 3}, []int{1, 2, 3}, false},
		{[]int{1, 2, 3}, []int{1, 2, 3}, true},
		{[]int{1, 2, 3, 4}, []int{1, 2, 3}, false},
	}
	for _, c := range cases {
		if got := IsPrefix(c.a, c.b); got != c.want {
			t.Errorf("IsPrefix(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsPrefixProperties(t *testing.T) {
	// a ≤ a+b, and a ≤ b ∧ b ≤ a ⇒ a = b.
	f := func(a, b []byte) bool {
		ab := append(append([]byte{}, a...), b...)
		if !IsPrefix(a, ab) {
			return false
		}
		if IsPrefix(a, b) && IsPrefix(b, a) && string(a) != string(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsistent(t *testing.T) {
	if !Consistent([]int{1}, []int{1, 2}, nil) {
		t.Error("prefix chain should be consistent")
	}
	if Consistent([]int{1}, []int{2}) {
		t.Error("diverging sequences are not consistent")
	}
	if !Consistent[int]() {
		t.Error("empty collection is consistent")
	}
}

func TestCommonPrefix(t *testing.T) {
	got := CommonPrefix([]int{1, 2, 3}, []int{1, 2, 9, 9})
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("CommonPrefix = %v", got)
	}
	if len(CommonPrefix([]int{1}, []int{2})) != 0 {
		t.Error("disjoint sequences share only λ")
	}
}

func TestCommonPrefixProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		p := CommonPrefix(a, b)
		if !IsPrefix(p, a) || !IsPrefix(p, b) {
			return false
		}
		// Maximal: the next elements differ or one sequence ends.
		if len(p) < len(a) && len(p) < len(b) && a[len(p)] == b[len(p)] {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneSeq(t *testing.T) {
	a := []int{1, 2}
	c := CloneSeq(a)
	c[0] = 9
	if a[0] != 1 {
		t.Error("CloneSeq not independent")
	}
	if CloneSeq[int](nil) == nil {
		t.Error("CloneSeq of nil should be non-nil empty")
	}
}
