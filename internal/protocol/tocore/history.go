package tocore

import (
	"maps"
	"slices"

	"repro/internal/types"
)

// history is the representation of Figure 5's content ⊆ L × A and
// safe-labels ⊆ L: one run per ⟨view, origin⟩, a handful of entries, instead
// of two maps keyed by label that hold the whole execution. VS delivers the
// labels of one run in seqno order, so content is an append and the safe set
// a counter; whatever arrives otherwise (a peer's summary may name any
// seqno) goes to the run's overflow maps and is drained into the dense part
// the moment it becomes contiguous. The representation is therefore exact
// for every input, canonical (equal relations give equal histories) and
// never allocates in proportion to a seqno. drop removes a run's lowest
// label for good — the node calls it on the stable prefix it truncates — and
// leaves the seqno in the run's base, which is all that remains of it: a
// peer's summary that still carries the label is ignored there. A run in the
// map is never empty unless it has dropped labels.
type history map[runKey]*run

type runKey struct {
	id     types.ViewID
	origin types.ProcID
}

// run holds the labels ⟨id, base+1.., origin⟩ of one key, seqnos 1..base
// having been dropped: dense[i-1-base] is the payload of seqno i and seqnos
// base+1..safeTo are safe (safeTo ≥ base). sparse holds content at every
// other seqno (never base+len(dense)+1), safeSparse the safe seqnos beyond
// safeTo (never safeTo+1); both are nil unless input arrived with gaps.
type run struct {
	base       int
	dense      []string
	safeTo     int
	sparse     map[int]string
	safeSparse map[int]struct{}
}

func keyOf(l types.Label) runKey { return runKey{id: l.ID, origin: l.Origin} }

// at returns l's run for the two operations that add to it, creating it.
func (h history) at(l types.Label) *run {
	r := h[keyOf(l)]
	if r == nil {
		r = &run{}
		h[keyOf(l)] = r
	}
	return r
}

// put is content[l] = a.
func (h history) put(l types.Label, a string) {
	r := h.at(l)
	switch i := l.Seqno - 1 - r.base; {
	case uint(i) < uint(len(r.dense)):
		r.dense[i] = a
	case i == len(r.dense):
		r.dense = append(grow(r.dense), a)
		// What a gap held back may be contiguous now (a nil map yields nothing).
		for next, ok := r.sparse[r.end()+1]; ok; next, ok = r.sparse[r.end()+1] {
			delete(r.sparse, r.end()+1)
			r.dense = append(r.dense, next)
		}
		if r.sparse != nil && len(r.sparse) == 0 {
			r.sparse = nil
		}
	case i < 0 && l.Seqno > 0: // dropped
	default:
		if r.sparse == nil {
			r.sparse = make(map[int]string)
		}
		r.sparse[l.Seqno] = a
	}
}

// end is the highest seqno of the dense part.
func (r *run) end() int { return r.base + len(r.dense) }

// get is the lookup content[l].
func (h history) get(l types.Label) (string, bool) {
	r := h[keyOf(l)]
	if r == nil {
		return "", false
	}
	if i := l.Seqno - 1 - r.base; uint(i) < uint(len(r.dense)) {
		return r.dense[i], true
	}
	a, ok := r.sparse[l.Seqno]
	return a, ok
}

// drop removes l, content and safe mark, if it is the lowest label its run
// holds; the slot is cleared so the payload does not outlive it in the
// backing array, which the next append that grows the run leaves behind
// (clearSafe, at the next view, if the run never grows again).
func (h history) drop(l types.Label) bool {
	r := h[keyOf(l)]
	if r == nil || l.Seqno != r.base+1 || len(r.dense) == 0 {
		return false
	}
	r.dense[0] = ""
	r.dense = r.dense[1:]
	if r.base++; r.safeTo < r.base {
		r.advanceSafe() // the frontier never lags the base
	}
	return true
}

// merge is content.Merge(con). Labels already present are overwritten where
// they are, an index away; the new ones are fed in label order — seqno order
// within each run — so a summary that extends a run appends to it without
// touching the overflow, whatever order the map is ranged in.
func (h history) merge(con types.Content) {
	var rest []types.Label
	for l, a := range con {
		if _, has := h.get(l); has {
			h.put(l, a)
		} else {
			rest = append(rest, l)
		}
	}
	types.SortLabels(rest)
	for _, l := range rest {
		h.put(l, con[l])
	}
}

// labeled returns how many labels of origin p have or had content.
func (h history) labeled(p types.ProcID) int {
	n := 0
	for k, r := range h {
		if k.origin == p {
			n += r.end() + len(r.sparse)
		}
	}
	return n
}

// export returns the content relation as the abstract state has it.
func (h history) export() types.Content {
	n := 0
	for _, r := range h {
		n += len(r.dense) + len(r.sparse)
	}
	out := make(types.Content, n)
	for k, r := range h {
		for i, a := range r.dense {
			out[types.Label{ID: k.id, Seqno: r.base + i + 1, Origin: k.origin}] = a
		}
		for s, a := range r.sparse {
			out[types.Label{ID: k.id, Seqno: s, Origin: k.origin}] = a
		}
	}
	return out
}

// markSafe is safe-labels ∪= {l}; l need not have content.
func (h history) markSafe(l types.Label) {
	r := h.at(l)
	switch {
	case l.Seqno == r.safeTo+1:
		r.advanceSafe()
	case uint(l.Seqno-1) >= uint(r.safeTo):
		if r.safeSparse == nil {
			r.safeSparse = make(map[int]struct{})
		}
		r.safeSparse[l.Seqno] = struct{}{}
	}
}

// advanceSafe moves the safe frontier one seqno up and on over whatever the
// overflow holds next.
func (r *run) advanceSafe() {
	r.safeTo++
	for _, ok := r.safeSparse[r.safeTo+1]; ok; _, ok = r.safeSparse[r.safeTo+1] {
		r.safeTo++
		delete(r.safeSparse, r.safeTo)
	}
	if r.safeSparse != nil && len(r.safeSparse) == 0 {
		r.safeSparse = nil
	}
}

// isSafe is l ∈ safe-labels.
func (h history) isSafe(l types.Label) bool {
	r := h[keyOf(l)]
	if r == nil {
		return false
	}
	if uint(l.Seqno-1-r.base) < uint(r.safeTo-r.base) {
		return true
	}
	_, ok := r.safeSparse[l.Seqno]
	return ok
}

// clearSafe is safe-labels := ∅.
func (h history) clearSafe() {
	for k, r := range h {
		r.safeTo, r.safeSparse = r.base, nil
		if len(r.dense) == 0 {
			r.dense = nil
		}
		if r.end() == 0 && r.sparse == nil {
			delete(h, k)
		}
	}
}

// Clone returns an independent copy: slices and overflow maps are copied,
// nothing is re-inserted.
func (h history) Clone() history {
	out := make(history, len(h))
	for k, r := range h {
		out[k] = r.Clone()
	}
	return out
}

// Clone returns an independent copy of r.
func (r *run) Clone() *run {
	return &run{
		base:       r.base,
		dense:      slices.Clone(r.dense),
		safeTo:     r.safeTo,
		sparse:     maps.Clone(r.sparse),
		safeSparse: maps.Clone(r.safeSparse),
	}
}
