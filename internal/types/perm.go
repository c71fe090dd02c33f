package types

// Perm is a bijection over a finite process universe, used for symmetry
// reduction over process identities: ids not in the map are fixed. The
// helpers below push a permutation through every id-bearing type in this
// package; model packages compose them into deep state permutations.
type Perm map[ProcID]ProcID

// ID returns π(p); ids outside the permutation's domain are fixed.
func (pi Perm) ID(p ProcID) ProcID {
	if q, ok := pi[p]; ok {
		return q
	}
	return p
}

// Set returns π(s) as a fresh set.
func (pi Perm) Set(s ProcSet) ProcSet {
	if s == nil {
		return nil
	}
	out := make(ProcSet, len(s))
	for p := range s {
		out[pi.ID(p)] = struct{}{}
	}
	return out
}

// ViewID returns π(g). The origin component names the process that created
// the view — except in g0, the distinguished least identifier, whose zero
// origin is not a process reference and is left fixed (g0 must be fixed by
// every symmetry: it identifies the initial view).
func (pi Perm) ViewID(g ViewID) ViewID {
	if g.Seq == 0 {
		return g
	}
	return ViewID{Seq: g.Seq, Origin: pi.ID(g.Origin)}
}

// View returns π(v) as a fresh view.
func (pi Perm) View(v View) View {
	return View{ID: pi.ViewID(v.ID), Members: pi.Set(v.Members)}
}

// Label returns π(l); both the view id and the origin name processes.
func (pi Perm) Label(l Label) Label {
	return Label{ID: pi.ViewID(l.ID), Seqno: l.Seqno, Origin: pi.ID(l.Origin)}
}

// Content returns π(c) as a fresh relation (labels re-keyed, messages
// unchanged).
func (pi Perm) Content(c Content) Content {
	if c == nil {
		return nil
	}
	out := make(Content, len(c))
	for l, a := range c {
		out[pi.Label(l)] = a
	}
	return out
}

// Labels returns π applied elementwise to a label sequence.
func (pi Perm) Labels(ls []Label) []Label {
	if ls == nil {
		return nil
	}
	out := make([]Label, len(ls))
	for i, l := range ls {
		out[i] = pi.Label(l)
	}
	return out
}

// Summary returns π(x) as a fresh summary. A digest cannot be permuted
// without the labels it chains, so the image is exact only for Base = 0,
// which is every summary the symmetry audits meet.
func (pi Perm) Summary(x Summary) Summary {
	x.Con, x.Ord, x.High = pi.Content(x.Con), pi.Labels(x.Ord), pi.ViewID(x.High)
	return x
}

// GotState returns π(y) as a fresh map: domain re-keyed, summaries
// permuted.
func (pi Perm) GotState(y GotState) GotState {
	if y == nil {
		return nil
	}
	out := make(GotState, len(y))
	for p, x := range y {
		out[pi.ID(p)] = pi.Summary(x)
	}
	return out
}

// PermutableMsg is implemented by message types that carry process
// identities (directly or through views and labels) and therefore change
// under a process permutation. Messages without the method are fixed points
// of every permutation.
type PermutableMsg interface {
	Msg
	// PermuteMsg returns π(m) as a fresh message; the receiver is not
	// mutated.
	PermuteMsg(pi Perm) Msg
}

// Msg returns π(m): PermutableMsg values are permuted, everything else
// (client payloads, id-free service messages) is returned unchanged.
func (pi Perm) Msg(m Msg) Msg {
	if pm, ok := m.(PermutableMsg); ok {
		return pm.PermuteMsg(pi)
	}
	return m
}

// Msgs returns π applied elementwise to a message sequence.
func (pi Perm) Msgs(q []Msg) []Msg {
	if q == nil {
		return nil
	}
	out := make([]Msg, len(q))
	for i, m := range q {
		out[i] = pi.Msg(m)
	}
	return out
}

// PermuteMsg implements PermutableMsg: a batch permutes elementwise.
func (b Batch) PermuteMsg(pi Perm) Msg { return Batch{Msgs: pi.Msgs(b.Msgs)} }

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
