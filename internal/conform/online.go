package conform

import (
	"sync"
	"time"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/wire"
)

// OnlineConfig bounds the in-process sampled checker.
type OnlineConfig struct {
	// Window is the number of most-recent macro-steps kept per layer for
	// re-stepping (default 256). Larger windows catch corruption with more
	// context but cost more per check.
	Window int
	// Every runs one sampled check per this many observed macro-steps,
	// summed over both layers (default 1024).
	Every int
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.Every <= 0 {
		c.Every = 1024
	}
	return c
}

// OnlineStats is a snapshot of the checker's counters, exported by dvsnode
// through the expvar surface.
type OnlineStats struct {
	Steps         uint64 // macro-steps observed (both layers)
	Checks        uint64 // sampled checks run
	StepsChecked  uint64 // macro-steps re-stepped across all checks
	Divergences   uint64
	Violations    uint64
	LastError     string // most recent divergence or violation, rendered
	CheckNanos    int64  // cumulative wall time spent inside checks
	MaxCheckNanos int64  // slowest single check
}

// OnlineChecker is the always-on, bounded-suffix conformance checker: it
// keeps a pair of shadow cores lagging the live ones, and on a sampling
// schedule advances them to Window macro-steps per layer behind, clones
// them, re-steps the buffered suffix, compares the re-derived effects
// against the recorded ones, and runs the per-node invariant projections on
// the result. Records are buffered the way the stream recorder buffers a
// chunk — encoded at the observation point, nothing of the live event or
// effects retained — and decoded when a sample fires. Memory is O(Window +
// Every) encoded records on top of the shadow core state; check cost is
// O(Window) per sample, amortized to O(Window/Every) per macro-step.
//
// Observe callbacks run on the node's event loop, so check latency is paid
// inline — that is the overhead EXPERIMENTS.md E13 measures. Stats may be
// read from any goroutine.
type OnlineChecker struct {
	cfg OnlineConfig
	// scratch is where a record is encoded before the mutex is taken; both
	// observers run on the node's event loop, never nested.
	scratch []byte

	mu      sync.Mutex
	base    replayNode // shadow cores, lagging the live ones by the buffered records
	winDVS  recWindow
	winTO   recWindow
	since   int
	stopped bool // a record did not encode: the window has a hole
	stats   OnlineStats
}

// recWindow is a FIFO of encoded records: how many, and their concatenated
// bytes.
type recWindow struct {
	n int
	b []byte
}

// decodeWindow decodes every record of w and splits off those older than the
// newest max, which it also drops from w. The slice head moves and append
// reallocates eventually, so retained memory follows the live records.
func decodeWindow[R any](w *recWindow, max int, one func(*wire.Reader) R) (aged, window []R) {
	r := wire.Reader{B: w.b}
	recs := make([]R, w.n)
	cut := w.n - min(w.n, max)
	for i := range recs {
		if i == cut {
			w.b = r.B
		}
		recs[i] = one(&r)
	}
	w.n -= cut
	return recs[:cut], recs[cut:]
}

// NewOnlineChecker builds a checker for the node with the given core
// construction parameters (StreamRecorder.Node's, minus group and static:
// the online checker shadows the dynamic cores only).
func NewOnlineChecker(p types.ProcID, initial types.View, inP0, register, gc bool, cfg OnlineConfig) *OnlineChecker {
	return &OnlineChecker{
		cfg:  cfg.withDefaults(),
		base: *newReplayNode(NodeMeta{P: p, Initial: initial, InP0: inP0, Register: register, GC: gc}),
	}
}

// ObserveDVS buffers one VS-TO-DVS macro-step; install as a dvsg observer.
func (c *OnlineChecker) ObserveDVS(ev dvscore.Event, fx []dvscore.Effect) {
	var err error
	c.scratch, err = dvsCodec.append(c.scratch[:0], ev, fx)
	c.observed(&c.winDVS, err)
}

// ObserveTO buffers one DVS-TO-TO macro-step; install as a tob observer.
func (c *OnlineChecker) ObserveTO(ev tocore.Event, fx []tocore.Effect) {
	var err error
	c.scratch, err = toCodec.append(c.scratch[:0], ev, fx)
	c.observed(&c.winTO, err)
}

// observed appends the record in scratch to w and runs a check when one is
// due.
func (c *OnlineChecker) observed(w *recWindow, encErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if encErr != nil {
		// A message type with no wire tag: like the stream recorder's sticky
		// error, past the hole the shadow cores could only diverge.
		c.stopped = true
		c.stats.LastError = encErr.Error()
		return
	}
	w.b = append(w.b, c.scratch...)
	w.n++
	c.stats.Steps++
	c.since++
	if c.since >= c.cfg.Every {
		c.since = 0
		c.checkLocked()
	}
}

// checkLocked is one sampled check: decode the buffered records, age the
// shadow cores past all but the newest Window of each layer, clone them,
// re-step that suffix, compare effects, run the per-node projections.
func (c *OnlineChecker) checkLocked() {
	start := time.Now()
	agedDVS, dvsRecs := decodeWindow(&c.winDVS, c.cfg.Window, dvsCodec.read)
	agedTO, toRecs := decodeWindow(&c.winTO, c.cfg.Window, toCodec.read)
	// Recorded events were accepted by the live core, so the shadow cannot
	// reject them; a rejection would surface as a divergence in the
	// re-stepped suffix anyway.
	for _, rec := range agedDVS {
		c.base.stepDVS(rec.Ev)
	}
	for _, rec := range agedTO {
		c.base.stepTO(rec.Ev)
	}
	n := replayNode{meta: c.base.meta, dvs: c.base.dvs.Clone(), to: c.base.to.Clone(), local: c.base.local}
	rep := &Report{}
	part := chunkPart{DVS: dvsRecs, TO: toRecs}
	n.replay(rep, 0, &part)
	checkLocal(rep, 0, &n)
	c.base.local = n.local

	c.stats.Checks++
	c.stats.StepsChecked += uint64(len(part.DVS) + len(part.TO))
	if n := len(rep.Divergences); n > 0 {
		c.stats.Divergences += uint64(n)
		c.stats.LastError = rep.Divergences[0].String()
	}
	if n := len(rep.Violations); n > 0 {
		c.stats.Violations += uint64(n)
		c.stats.LastError = rep.Violations[0].String()
	}
	nanos := time.Since(start).Nanoseconds()
	c.stats.CheckNanos += nanos
	if nanos > c.stats.MaxCheckNanos {
		c.stats.MaxCheckNanos = nanos
	}
}

// Stats returns a snapshot of the counters. Thread-safe.
func (c *OnlineChecker) Stats() OnlineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
