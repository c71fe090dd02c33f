package ioa

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Explore performs exhaustive breadth-first exploration of an automaton's
// reachable state space under a finitely-branching environment, checking
// every invariant at every distinct state and, optionally, the refinement
// step-correspondence on every edge. Unlike the random executor, this is a
// complete check up to the given bounds: if it passes, no reachable state
// within the bounds violates the properties.
//
// States are deduplicated by their 128-bit fingerprint (FpOf), so an
// automaton's state must be its value: whatever FpOf skips (func, chan and
// ioa:"shared" fields) must not tell two states apart. The environment's
// Inputs must be a pure function of the automaton state
// (equal state ⇒ equal successors) — see StateSeed. AuditFingerprints
// cross-checks the hash against a reflective rendering of each state.

// ExploreConfig bounds an exploration.
type ExploreConfig struct {
	// MaxStates caps the number of distinct states visited (0 = 1 << 20).
	MaxStates int
	// MaxDepth caps the BFS depth (0 = unlimited).
	MaxDepth int
	// Parallel is the number of BFS workers per level (0 = GOMAXPROCS,
	// 1 = serial). State, edge, and depth counts are identical for every
	// worker count: the BFS is level-synchronous, each level's discoveries
	// are merged into fingerprint-ordered shard runs, and new states are
	// admitted in that order (see the determinism note on shardOf).
	Parallel int
	// Invariants are checked at every distinct state.
	Invariants []Invariant
	// Refinement, if non-nil, is checked on every explored edge. The
	// abstracted spec state F(s) is computed once per distinct state and
	// cached on the frontier, not recomputed per outgoing edge. Abstract
	// states are interned by fingerprint: distinct implementation states
	// sharing one F(s) share one spec automaton in memory.
	Refinement Refinement
	// SpecInvariants are checked on intermediate spec states when
	// Refinement is set.
	SpecInvariants []Invariant
	// AuditFingerprints renders every state by reflection and fails the
	// exploration if one hash covers two renderings or one rendering two
	// hashes, a queued state's rendering changes, a clone renders otherwise
	// or shares a map, slice or pointer with its original (bar fields
	// tagged ioa:"shared"), or no member of a Symmetric state's Orbit
	// renders as the state. Expensive; for tests.
	AuditFingerprints bool
	// Symmetry enables symmetry reduction over process identities: every
	// discovered state is replaced by its orbit representative
	// (Symmetric.Canonicalize) before fingerprinting and dedup, so the
	// exploration counts orbits, not states. The automaton must implement
	// Symmetric. Soundness additionally requires the environment, the
	// invariants, and the automaton's transitions to be equivariant under
	// the symmetry group — see DESIGN.md §6.7.
	Symmetry bool
	// AuditSymmetry cross-checks orbit soundness the same way
	// AuditFingerprints checks digests: for every discovered state, every
	// member of its orbit must canonicalize to one fingerprint, and the
	// representative must lie in the orbit. Implies Symmetry. Expensive;
	// for tests.
	AuditSymmetry bool
}

// ExploreResult reports exploration statistics.
type ExploreResult struct {
	States         int           // distinct states visited (orbits under Symmetry)
	Edges          int           // transitions explored
	Truncated      bool          // hit MaxStates or MaxDepth before exhausting the space
	MaxDepth       int           // deepest level reached
	InvariantEvals int64         // invariant predicate evaluations
	Wall           time.Duration // elapsed wall-clock time
	AllocBytes     uint64        // heap allocation delta over the exploration
	GCCycles       uint32        // GC cycles completed during the exploration
}

// Report converts the exploration statistics into the common CheckReport
// shape (one "execution"; steps = edges, states = distinct states).
func (r ExploreResult) Report() CheckReport {
	return CheckReport{
		Executions:     1,
		Steps:          int64(r.Edges),
		States:         int64(r.States),
		InvariantEvals: r.InvariantEvals,
		Wall:           r.Wall,
		AllocBytes:     r.AllocBytes,
		GCCycles:       r.GCCycles,
	}
}

const (
	// exploreShards is the number of merge shards (and fpSet stripes).
	exploreShards = 64
	// exploreChunk is the number of frontier entries a worker claims per
	// atomic increment: large enough to keep the claim counter off the
	// coherence hot path, small enough to balance uneven entries.
	exploreChunk = 8
)

// shardOf maps a fingerprint to its merge shard using the TOP bits of
// Fp.Hi. Shard order therefore refines Fp.Less order — every fingerprint
// in shard k orders below every fingerprint in shard k+1 — so sorting each
// shard independently and concatenating the runs in shard order reproduces
// exactly the globally fingerprint-sorted admission sequence the
// determinism contract promises, without a global sort.
func shardOf(fp Fp) int { return int(fp.Hi >> 58) }

// exploreErr is a worker-discovered failure keyed by its deterministic
// position in the level: (frontier index, action index). The lowest key is
// the error the serial in-order BFS would have hit first.
type exploreErr struct {
	frontier, action int
	err              error
}

func (e *exploreErr) better(o *exploreErr) bool {
	if o == nil {
		return true
	}
	if e.frontier != o.frontier {
		return e.frontier < o.frontier
	}
	return e.action < o.action
}

// frontierEntry is one distinct state queued for expansion, together with
// its cached abstraction F(a) when a refinement is being checked.
type frontierEntry struct {
	a   Automaton
	abs Automaton
}

// discovery is a state first reached at the current level, carried to the
// post-level admission step.
type discovery struct {
	fp  Fp
	a   Automaton
	abs Automaton
}

// discSlice sorts discoveries by fingerprint without the reflective
// swapper allocation of sort.Slice.
type discSlice []discovery

func (s discSlice) Len() int           { return len(s) }
func (s discSlice) Less(i, j int) bool { return s[i].fp.Less(s[j].fp) }
func (s discSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// shardBuf collects one shard's discoveries across all workers. Padded so
// neighbouring shard locks do not share a cache line.
type shardBuf struct {
	mu sync.Mutex
	d  []discovery
	_  [32]byte
}

// exploreScratch is per-worker reusable storage: the action buffer and the
// per-shard discovery buckets survive across frontier entries and across
// levels, so steady-state expansion does not allocate for bookkeeping.
type exploreScratch struct {
	acts    []Action
	buckets [exploreShards][]discovery
}

// flushBucket appends one local bucket into the shared shard buffer and
// resets it, dropping its automaton references.
func (sc *exploreScratch) flushBucket(level *[exploreShards]shardBuf, s int) {
	b := sc.buckets[s]
	if len(b) == 0 {
		return
	}
	sb := &level[s]
	sb.mu.Lock()
	sb.d = append(sb.d, b...)
	sb.mu.Unlock()
	clear(b)
	sc.buckets[s] = b[:0]
}

// bucketFlushLen bounds a local per-shard bucket before it is flushed to
// the shared shard buffer mid-level, so worker-local buffering does not
// grow per-level memory by worker count.
const bucketFlushLen = 128

// fpAudit cross-checks hash fingerprints against renderings for every
// visited state, and holds each queued state's rendering until it is
// expanded (AuditFingerprints mode).
type fpAudit struct {
	mu    sync.Mutex
	byFp  map[Fp]string
	byStr map[string]Fp
	queue map[Automaton]string
}

func newFpAudit() *fpAudit {
	return &fpAudit{byFp: make(map[Fp]string), byStr: make(map[string]Fp), queue: make(map[Automaton]string)}
}

// check records the (hash, rendering) pair for one state and fails if it is
// inconsistent with any previously visited state: two renderings with one
// hash means the fingerprint drops or merges state (or, rarely, a hash
// collision); two hashes for one rendering means the digest is not a
// function of the state.
func (au *fpAudit) check(fp Fp, s string) error {
	au.mu.Lock()
	defer au.mu.Unlock()
	if prev, ok := au.byFp[fp]; ok && prev != s {
		return fmt.Errorf("fingerprint %v covers two distinct states (the fingerprint drops or merges state):%s", fp, firstDiff(prev, s))
	}
	if prev, ok := au.byStr[s]; ok && prev != fp {
		return fmt.Errorf("non-canonical fingerprint: state hashed to both %v and %v:\n%s", prev, fp, s)
	}
	au.byFp[fp] = s
	au.byStr[s] = fp
	return nil
}

// admit records the rendering of a state entering the next frontier.
func (au *fpAudit) admit(a Automaton, s string) {
	au.mu.Lock()
	au.queue[a] = s
	au.mu.Unlock()
}

// expand checks a queued state before its successors are taken: it renders
// as admitted, a clone renders alike and shares no storage with it, and a
// Symmetric state is rendered by some member of its orbit.
func (au *fpAudit) expand(a Automaton) error {
	s, c := render(reflect.ValueOf(a)), a.Clone()
	au.mu.Lock()
	was := au.queue[a]
	delete(au.queue, a)
	au.mu.Unlock()
	cs := render(reflect.ValueOf(c))
	switch p := sharedRef(reflect.ValueOf(a), reflect.ValueOf(c), fmt.Sprintf("%T", a)); {
	case s != was:
		return fmt.Errorf("queued state changed after admission:%s", firstDiff(was, s))
	case cs != s:
		return fmt.Errorf("clone differs from its original:%s", firstDiff(s, cs))
	case p != "":
		return fmt.Errorf("clone shares %s with its original", p)
	}
	sym, ok := a.(Symmetric)
	if !ok {
		return nil
	}
	for _, m := range sym.Orbit() {
		if cs = render(reflect.ValueOf(m)); cs == s {
			return nil
		}
	}
	return fmt.Errorf("no member of the orbit renders as the state (Permute drops state):%s", firstDiff(s, cs))
}

// absIntern interns abstract (specification) states by fingerprint so that
// the many implementation states sharing one F(s) share one spec automaton
// in memory. Interned automata are read-shared across workers and frontier
// entries; nothing may mutate them (checkPlannedStep runs plans on clones).
type absIntern struct {
	stripes [exploreShards]struct {
		mu sync.Mutex
		m  map[Fp]Automaton
	}
}

func (in *absIntern) intern(fp Fp, a Automaton) Automaton {
	st := &in.stripes[shardOf(fp)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if got, ok := st.m[fp]; ok {
		return got
	}
	if st.m == nil {
		st.m = make(map[Fp]Automaton)
	}
	st.m[fp] = a
	return a
}

// canonicalize resolves the symmetry hook for one state: it returns the
// orbit representative and, in audit mode, verifies that every orbit member
// canonicalizes to the same fingerprint (orbit soundness: the
// representative is a well-defined function of the orbit, not of the
// particular member the search happened to reach).
func canonicalize(a Automaton, audit bool) (Automaton, Fp, error) {
	sym, ok := a.(Symmetric)
	if !ok {
		return nil, Fp{}, fmt.Errorf("symmetry reduction: %T does not implement ioa.Symmetric", a)
	}
	rep, repFp := sym.Canonicalize()
	if audit {
		inOrbit := false
		for _, m := range sym.Orbit() {
			if FpOf(m) == repFp {
				inOrbit = true
			}
			ms, ok := m.(Symmetric)
			if !ok {
				return nil, Fp{}, fmt.Errorf("symmetry audit: orbit member %T does not implement ioa.Symmetric", m)
			}
			if _, mRepFp := ms.Canonicalize(); mRepFp != repFp {
				return nil, Fp{}, fmt.Errorf("symmetry audit: orbit members canonicalize to different representatives:\n  state     = %s\n  member    = %s\n  canon(state)  = %v\n  canon(member) = %v",
					Render(a), Render(m), repFp, mRepFp)
			}
		}
		if !inOrbit {
			return nil, Fp{}, fmt.Errorf("symmetry audit: representative %v is not in the orbit of %s", repFp, Render(a))
		}
	}
	return rep, repFp, nil
}

// Explore runs the exhaustive check across cfg.Parallel workers. The
// environment supplies the (finitely many) input actions available in each
// state; locally controlled actions come from Enabled. The initial
// automaton is not mutated.
//
// The BFS is level-synchronous but the per-level work is pipelined inside
// one worker pool pass: workers claim frontier chunks, expand successors
// into per-worker buckets sharded by fingerprint, flush the buckets to
// shared shard buffers, and — after an in-pool flush barrier — claim shards
// to sort. The admission step then concatenates the sorted shard runs in
// shard order, which (see shardOf) is exactly the fingerprint-sorted order
// a global sort would produce, so every count the exploration reports is
// identical at every worker count while no single goroutine ever sorts, or
// even touches, the whole level.
func Explore(initial Automaton, env Environment, cfg ExploreConfig) (res ExploreResult, err error) {
	start := time.Now()
	mem := startMemSample()
	defer func() {
		res.Wall = time.Since(start)
		mem.apply2(&res.AllocBytes, &res.GCCycles)
	}()
	if env == nil {
		env = NoEnvironment
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	workers := Workers(cfg.Parallel)
	symmetry := cfg.Symmetry || cfg.AuditSymmetry
	nInvs := int64(countInvs(cfg.Invariants))
	var audit *fpAudit
	if cfg.AuditFingerprints {
		audit = newFpAudit()
	}
	var interned *absIntern
	if cfg.Refinement != nil {
		interned = new(absIntern)
	}

	scratch := make([]exploreScratch, workers)

	first := initial.Clone()
	res.InvariantEvals += nInvs
	if err := checkInvariants(first, cfg.Invariants); err != nil {
		return res, fmt.Errorf("initial state: %w", err)
	}
	firstFp := FpOf(first)
	if symmetry {
		var err error
		first, firstFp, err = canonicalize(first, cfg.AuditSymmetry)
		if err != nil {
			return res, fmt.Errorf("initial state: %w", err)
		}
	}
	var absFirst Automaton
	if cfg.Refinement != nil {
		var err error
		absFirst, err = cfg.Refinement.Abstract(first)
		if err != nil {
			return res, fmt.Errorf("abstract initial state: %w", err)
		}
		specInit := cfg.Refinement.SpecInitial()
		absFp := FpOf(absFirst)
		if absFp != FpOf(specInit) {
			return res, fmt.Errorf("F(init) is not the spec initial state:\n  F(init) = %s\n  init    = %s",
				Render(absFirst), Render(specInit))
		}
		absFirst = interned.intern(absFp, absFirst)
	}
	if audit != nil {
		s := render(reflect.ValueOf(first))
		if err := audit.check(firstFp, s); err != nil {
			return res, err
		}
		audit.admit(first, s)
	}

	seen := newFpSet()
	seen.Add(firstFp)
	frontier := []frontierEntry{{a: first, abs: absFirst}}
	res.States = 1

	var level [exploreShards]shardBuf

	const noErrFrontier = math.MaxInt64
	for depth := 0; len(frontier) > 0; depth++ {
		if depth > res.MaxDepth {
			res.MaxDepth = depth
		}
		if cfg.MaxDepth > 0 && depth >= cfg.MaxDepth {
			res.Truncated = true
			break
		}

		w := workers
		if w > len(frontier) {
			w = len(frontier)
		}
		var (
			next     atomic.Int64 // next frontier chunk to claim
			sortNext atomic.Int64 // next shard to sort
			errFront atomic.Int64 // lowest failing frontier index (fast-path early stop)
			edges    atomic.Int64
			invEvals atomic.Int64
			mu       sync.Mutex // guards levelErr
			levelErr *exploreErr
			flushed  sync.WaitGroup // in-pool barrier: all buckets flushed
			wg       sync.WaitGroup
		)
		errFront.Store(noErrFrontier)
		flushed.Add(w)
		fail := func(frontierIdx, actionIdx int, err error) {
			e := &exploreErr{frontier: frontierIdx, action: actionIdx, err: err}
			mu.Lock()
			if e.better(levelErr) {
				levelErr = e
				errFront.Store(int64(e.frontier))
			}
			mu.Unlock()
		}
		body := func(sc *exploreScratch) {
			defer wg.Done()
			var localEdges, localInvs int64
		claim:
			for {
				base := int(next.Add(exploreChunk)) - exploreChunk
				if base >= len(frontier) {
					break
				}
				end := base + exploreChunk
				if end > len(frontier) {
					end = len(frontier)
				}
				for i := base; i < end; i++ {
					if errFront.Load() < int64(i) {
						// A deterministically earlier frontier entry already
						// failed; nothing from here on can precede it.
						break claim
					}
					cur := frontier[i].a
					absPre := frontier[i].abs
					if audit != nil {
						if err := audit.expand(cur); err != nil {
							fail(i, 0, fmt.Errorf("depth %d: %w", depth, err))
							break claim
						}
					}
					acts := append(sc.acts[:0], cur.Enabled()...)
					acts = append(acts, env.Inputs(cur)...)
					sc.acts = acts
					for j, act := range acts {
						succ := cur.Clone()
						if err := succ.Perform(act); err != nil {
							fail(i, j, fmt.Errorf("depth %d, action %s: %w", depth, act, err))
							break
						}
						localEdges++
						var absSucc Automaton
						if cfg.Refinement != nil {
							var err error
							absSucc, err = cfg.Refinement.Abstract(succ)
							if err != nil {
								fail(i, j, fmt.Errorf("depth %d, action %s: abstract post-state: %w", depth, act, err))
								break
							}
							if err := checkPlannedStep(cur, act, absPre, absSucc, cfg.Refinement, cfg.SpecInvariants, nil); err != nil {
								fail(i, j, fmt.Errorf("depth %d, action %s: %w", depth, act, err))
								break
							}
						}
						var fp Fp
						if symmetry {
							// The refinement obligation above was checked on
							// the real edge; dedup, invariants, and the next
							// frontier use the orbit representative.
							rep, repFp, err := canonicalize(succ, cfg.AuditSymmetry)
							if err != nil {
								fail(i, j, fmt.Errorf("depth %d, action %s: %w", depth, act, err))
								break
							}
							succ, fp = rep, repFp
							if cfg.Refinement != nil {
								absSucc, err = cfg.Refinement.Abstract(succ)
								if err != nil {
									fail(i, j, fmt.Errorf("depth %d, action %s: abstract representative: %w", depth, act, err))
									break
								}
							}
						} else {
							fp = FpOf(succ)
						}
						var astr string
						if audit != nil {
							astr = render(reflect.ValueOf(succ))
							if err := audit.check(fp, astr); err != nil {
								fail(i, j, fmt.Errorf("depth %d, action %s: %w", depth, act, err))
								break
							}
						}
						if !seen.Add(fp) {
							continue
						}
						if audit != nil {
							audit.admit(succ, astr)
						}
						localInvs += nInvs
						if err := checkInvariants(succ, cfg.Invariants); err != nil {
							fail(i, j, fmt.Errorf("depth %d, after %s: %w", depth+1, act, err))
							break
						}
						if absSucc != nil {
							absSucc = interned.intern(FpOf(absSucc), absSucc)
						}
						s := shardOf(fp)
						sc.buckets[s] = append(sc.buckets[s], discovery{fp: fp, a: succ, abs: absSucc})
						if len(sc.buckets[s]) >= bucketFlushLen {
							sc.flushBucket(&level, s)
						}
					}
				}
			}
			for s := range sc.buckets {
				sc.flushBucket(&level, s)
			}
			edges.Add(localEdges)
			invEvals.Add(localInvs)
			flushed.Done()
			// In-pool barrier: every worker's buckets are in the shared
			// shard buffers before any worker starts sorting them. The pool
			// pipelines straight into the merge phase without handing
			// control back to the coordinating goroutine.
			flushed.Wait()
			if errFront.Load() != noErrFrontier {
				return
			}
			for {
				s := int(sortNext.Add(1)) - 1
				if s >= exploreShards {
					return
				}
				if d := level[s].d; len(d) > 1 {
					sort.Sort(discSlice(d))
				}
			}
		}
		if w == 1 {
			wg.Add(1)
			body(&scratch[0])
		} else {
			for wi := 0; wi < w; wi++ {
				wg.Add(1)
				go body(&scratch[wi])
			}
		}
		wg.Wait()
		res.Edges += int(edges.Load())
		res.InvariantEvals += invEvals.Load()
		if levelErr != nil {
			return res, levelErr.err
		}

		// Admit the level's discoveries in fingerprint order — sorted shard
		// runs concatenated in shard order — up to the state cap, so the
		// next frontier, and with it every count this exploration reports,
		// is independent of worker scheduling.
		frontier = frontier[:0]
	admit:
		for s := range level {
			sb := &level[s]
			for _, d := range sb.d {
				if res.States >= maxStates {
					res.Truncated = true
					break admit
				}
				res.States++
				frontier = append(frontier, frontierEntry{a: d.a, abs: d.abs})
			}
		}
		for s := range level {
			sb := &level[s]
			clear(sb.d)
			sb.d = sb.d[:0]
		}
	}
	return res, nil
}
