package types

import (
	"bytes"
	"testing"
)

// FuzzPrefixLaws checks the partial-order laws of ≤ on byte sequences and
// the consistency definition of Section 2 against arbitrary inputs.
func FuzzPrefixLaws(f *testing.F) {
	f.Add([]byte("abc"), []byte("abcd"))
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{1, 2}, []byte{1, 3})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Antisymmetry.
		if IsPrefix(a, b) && IsPrefix(b, a) && !bytes.Equal(a, b) {
			t.Fatal("antisymmetry violated")
		}
		// CommonPrefix is the meet.
		p := CommonPrefix(a, b)
		if !IsPrefix(p, a) || !IsPrefix(p, b) {
			t.Fatal("common prefix not a prefix")
		}
		// Two sequences are consistent iff one is a prefix of the other.
		if Consistent(a, b) != (IsPrefix(a, b) || IsPrefix(b, a)) {
			t.Fatal("consistency is not comparability under ≤")
		}
	})
}

// FuzzViewIDOrder checks that the view identifier order is total and
// consistent with Compare.
func FuzzViewIDOrder(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(1), uint8(2))
	f.Fuzz(func(t *testing.T, s1 uint64, o1 uint8, s2 uint64, o2 uint8) {
		a := ViewID{Seq: s1, Origin: ProcID(o1)}
		b := ViewID{Seq: s2, Origin: ProcID(o2)}
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
			t.Fatal("not a total order")
		}
		if a.Compare(b) != -b.Compare(a) {
			t.Fatal("Compare not antisymmetric")
		}
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
