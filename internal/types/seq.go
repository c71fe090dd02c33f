package types

// Sequence utilities from Section 2 of the paper. Sequences are Go slices;
// the empty sequence λ is the nil (or empty) slice.

// IsPrefix reports whether a ≤ b, i.e. there exists c with a+c = b.
func IsPrefix[T comparable](a, b []T) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Consistent reports whether the collection of sequences is consistent:
// for every pair, one is a prefix of the other.
func Consistent[T comparable](seqs ...[]T) bool {
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			if !IsPrefix(seqs[i], seqs[j]) && !IsPrefix(seqs[j], seqs[i]) {
				return false
			}
		}
	}
	return true
}

// CommonPrefix returns the longest sequence that is a prefix of both a and b.
func CommonPrefix[T comparable](a, b []T) []T {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	out := make([]T, i)
	copy(out, a[:i])
	return out
}

// CloneSeq returns an independent copy of a. The clone of λ is a non-nil
// empty slice, so fingerprints of λ and cloned λ agree.
func CloneSeq[T any](a []T) []T {
	out := make([]T, len(a))
	copy(out, a)
	return out
}
