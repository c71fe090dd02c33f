package types

// Perm is a bijection over a finite process universe, used for symmetry
// reduction over process identities: ids not in the map are fixed.
// ioa.Permute maps a whole state through it.
type Perm map[ProcID]ProcID

// ID returns π(p); ids outside the permutation's domain are fixed.
func (pi Perm) ID(p ProcID) ProcID {
	if q, ok := pi[p]; ok {
		return q
	}
	return p
}

// PermsOf returns every permutation of the given universe in a
// deterministic order (lexicographic in the image sequence of the sorted
// universe). The identity is always first. Universes are small — the
// factorial growth is the caller's concern; symmetry groups are intersected
// down to stabilizers before use.
func PermsOf(universe ProcSet) []Perm {
	ids := universe.Sorted()
	n := len(ids)
	var out []Perm
	image := make([]ProcID, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(image) == n {
			pi := make(Perm, n)
			for i, p := range ids {
				pi[p] = image[i]
			}
			out = append(out, pi)
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			image = append(image, ids[i])
			rec()
			image = image[:len(image)-1]
			used[i] = false
		}
	}
	rec()
	return out
}
