package tocore

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// histModel is the reference the representation is held to: Figure 5's
// content and safe-labels as the two maps keyed by label they used to be,
// and per run how many of its lowest labels have been dropped — those are in
// neither map and nothing puts them back.
type histModel struct {
	content types.Content
	safe    map[types.Label]struct{}
	gone    map[runKey]int
}

func (m histModel) isGone(l types.Label) bool { return l.Seqno >= 1 && l.Seqno <= m.gone[keyOf(l)] }

func (m histModel) safeLabels() []types.Label {
	safe := make([]types.Label, 0, len(m.safe))
	for l := range m.safe {
		safe = append(safe, l)
	}
	types.SortLabels(safe)
	return safe
}

// build returns the history of m built the canonical way, label by label in
// label order. Equal relations must give reflect-equal histories whatever
// order of operations produced them.
func (m histModel) build() history {
	h := make(history)
	for k, base := range m.gone {
		h[k] = &run{base: base, safeTo: base}
	}
	for _, l := range m.content.Labels() {
		h.put(l, m.content[l])
	}
	for _, l := range m.safeLabels() {
		h.markSafe(l)
	}
	return h
}

func histFingerprint(h history) string { return ioa.Render(h) }

var (
	histViews  = []types.ViewID{{}, {Seq: 1}, {Seq: 1, Origin: 1}, {Seq: 2, Origin: 2}}
	histSeqnos = []int{0, -1, -7, 1 << 40, 1<<40 + 1, 2, 3, 5, 9}
	histPerms  = []types.Perm{{0: 1, 1: 0}, {0: 1, 1: 2, 2: 0}, {1: 2, 2: 1}}
)

// runHistoryOps interprets an op stream — next(n) yields the next choice in
// [0, n), ok false at the end of the stream — against a history and the
// model, comparing every lookup on the way and the whole relation, the
// canonical form and the fingerprint at every export. seen maps each
// fingerprint met to the relations it stood for: one text, one state.
func runHistoryOps(t testing.TB, seen map[string]string, next func(n int) (int, bool)) {
	h := make(history)
	m := histModel{content: types.Content{}, safe: map[types.Label]struct{}{}, gone: map[runKey]int{}}
	pick := func(n int) int {
		v, _ := next(n)
		return v
	}
	label := func() types.Label {
		l := types.Label{ID: histViews[pick(len(histViews))], Origin: types.ProcID(pick(3))}
		if k := pick(3 + len(histSeqnos)); k >= 3 {
			l.Seqno = histSeqnos[k-3] // out of order, duplicate, gapped, zero, negative, huge
		} else {
			for l.Seqno = m.gone[keyOf(l)] + 1; ; l.Seqno++ { // in order: the first seqno the run lacks
				if _, has := m.content[l]; !has {
					break
				}
			}
		}
		return l
	}
	compare := func(step int) {
		if got := h.export(); !maps.Equal(got, m.content) {
			t.Fatalf("op %d: content\n got %v\nwant %v", step, got, m.content)
		}
		want := m.build()
		if !maps.EqualFunc(h, want, func(a, b *run) bool {
			return a.base == b.base && a.safeTo == b.safeTo && slices.Equal(a.dense, b.dense) &&
				maps.Equal(a.sparse, b.sparse) && (a.sparse == nil) == (b.sparse == nil) &&
				maps.Equal(a.safeSparse, b.safeSparse) && (a.safeSparse == nil) == (b.safeSparse == nil)
		}) {
			t.Fatalf("op %d: representation is not canonical for content %v safe %v", step, m.content, m.safe)
		}
		fp, state := histFingerprint(h), fmt.Sprint(m.content, m.safeLabels(), m.gone)
		if fp != histFingerprint(want) {
			t.Fatalf("op %d: fingerprint %s depends on how %s was built", step, fp, state)
		}
		if prev, ok := seen[fp]; ok && prev != state {
			t.Fatalf("op %d: fingerprint %s stands for both %s and %s", step, fp, prev, state)
		}
		seen[fp] = state
	}
	for step := 0; ; step++ {
		op, ok := next(16)
		if !ok {
			compare(step)
			return
		}
		switch {
		case op < 6:
			l, a := label(), strconv.Itoa(pick(4))
			h.put(l, a)
			if !m.isGone(l) {
				m.content[l] = a
			}
		case op < 10:
			l := label()
			if pick(4) > 0 { // mostly in order: the first seqno of the run not yet safe
				for l.Seqno = m.gone[keyOf(l)] + 1; ; l.Seqno++ {
					if _, safe := m.safe[l]; !safe {
						break
					}
				}
			}
			h.markSafe(l)
			if !m.isGone(l) {
				m.safe[l] = struct{}{}
			}
		case op == 10:
			h.clearSafe()
			m.safe = map[types.Label]struct{}{}
		case op == 11:
			compare(step)
		case op == 12:
			// Carry on with the clone and wreck the original: any storage the
			// two share shows up in a later comparison.
			old := h
			h = h.Clone()
			for l := range m.content {
				old.put(l, "junk")
				old.markSafe(types.Label{ID: l.ID, Seqno: l.Seqno + 1, Origin: l.Origin})
			}
			old.clearSafe()
		case op == 13:
			pi := histPerms[pick(len(histPerms))]
			h = ioa.Permute(h, pi)
			m.content, m.safe, m.gone = ioa.Permute(m.content, pi), ioa.Permute(m.safe, pi), ioa.Permute(m.gone, pi)
		case op == 14:
			con := types.Content{}
			for i, k := 0, pick(6); i < k; i++ {
				con[label()] = "m" + strconv.Itoa(i)
			}
			h.merge(con)
			for l, a := range con {
				if !m.isGone(l) {
					m.content[l] = a
				}
			}
		case op == 15:
			// Drop the lowest label of a run: it goes iff it has content, and
			// takes its safe mark along.
			l := label()
			l.Seqno = m.gone[keyOf(l)] + 1
			_, has := m.content[l]
			if h.drop(l) != has {
				t.Fatalf("op %d: drop %s: %v, model holds it: %v", step, l, !has, has)
			}
			if has {
				delete(m.content, l)
				delete(m.safe, l)
				m.gone[keyOf(l)]++
			}
		}
		l := label()
		ga, gok := h.get(l)
		wa, wok := m.content[l]
		_, wsafe := m.safe[l]
		if ga != wa || gok != wok || h.isSafe(l) != wsafe {
			t.Fatalf("op %d: label %s: get %q,%v safe %v, model %q,%v safe %v", step, l, ga, gok, h.isSafe(l), wa, wok, wsafe)
		}
	}
}

// TestHistoryMatchesMapModel holds the dense runs to the two maps they
// replaced over seeded random interleavings of every operation, with labels
// arriving out of order, twice, past gaps, at zero, negative and huge seqnos,
// marked safe before or without content, and dropped from the low end.
func TestHistoryMatchesMapModel(t *testing.T) {
	seen := map[string]string{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := 4000
		runHistoryOps(t, seen, func(n int) (int, bool) {
			left--
			return rng.Intn(n), left > 0
		})
	}
}

// FuzzHistory is the same oracle over an op tape (scripts/check.sh fuzz).
func FuzzHistory(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 6, 0, 0, 0, 1, 11})
	f.Add([]byte{0, 1, 2, 6, 1, 0, 1, 2, 3, 2, 14, 5, 0, 0, 0, 12, 13, 1, 10, 11})
	f.Fuzz(func(t *testing.T, tape []byte) {
		runHistoryOps(t, map[string]string{}, func(n int) (int, bool) {
			if len(tape) == 0 {
				return 0, false
			}
			v := int(tape[0]) % n
			tape = tape[1:]
			return v, true
		})
	})
}

func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHistorySparseSeqnoIsCheap: labels arrive in summaries from the
// network, so a seqno is whatever a peer says it is. Storing, marking and
// clearing one must cost the same few allocations at 1<<40 as at 3.
func TestHistorySparseSeqnoIsCheap(t *testing.T) {
	for _, seqno := range []int{3, 1 << 40, -1 << 40} {
		l := types.Label{Seqno: seqno, Origin: 1}
		once := func() {
			h := make(history)
			h.merge(types.Content{l: "x"})
			h.markSafe(l)
			if a, ok := h.get(l); !ok || a != "x" || !h.isSafe(l) {
				t.Fatalf("seqno %d lost", seqno)
			}
			h.clearSafe()
		}
		if n := testing.AllocsPerRun(50, once); n > 12 {
			t.Errorf("seqno %d: %.0f allocations, want a constant ≤ 12", seqno, n)
		}
		if b := allocBytes(once); b > 4096 {
			t.Errorf("seqno %d: %d bytes allocated, want a constant ≤ 4096", seqno, b)
		}
	}
}

// TestSummaryMergeStaysDense: recovery merges a peer's whole content, ranged
// in map order, into a node that already holds most of it. Known labels must
// be an index compare and new ones an append — never a trip through the
// overflow maps — so the merge costs what the new labels cost.
func TestSummaryMergeStaysDense(t *testing.T) {
	const total, held = 20000, 19000
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	con := make(types.Content, total)
	n := NewNode(0, v0, true, false)
	for i := 1; i <= total; i++ {
		l := types.Label{ID: v0.ID, Seqno: (i + 1) / 2, Origin: 1 + types.ProcID(i%2)}
		con[l] = "p" + strconv.Itoa(i)
		if i <= held {
			if err := n.onDVSGpRcv(LabelMsg{L: l, A: con[l]}, l.Origin); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown, fresh := n.hist.Clone(), make(history)
	few := allocBytes(func() { grown.merge(con) })
	all := allocBytes(func() { fresh.merge(con) })
	t.Logf("merge allocated %d bytes for %d new labels, %d for %d", few, total-held, all, total)
	if few > all/4 {
		t.Errorf("merging %d new labels allocated %d bytes, %d from empty: the cost follows the summary, not what is new", total-held, few, all)
	}
	n.onDVSNewView(v(1, 0, 1, 2))
	if err := n.onDVSGpRcv(SummaryMsg{X: types.Summary{Con: con, Next: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	for _, h := range []history{n.hist, grown, fresh} {
		if got := h.export(); !maps.Equal(got, con) {
			t.Fatal("merged content differs from the summary")
		}
		for k, r := range h {
			if len(r.dense) != total/2 || r.sparse != nil || r.safeSparse != nil {
				t.Errorf("run %v: %d dense, %d in overflow, want all %d dense", k, len(r.dense), len(r.sparse), total/2)
			}
		}
	}
}
