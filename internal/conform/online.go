package conform

import (
	"sync"
	"time"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
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
// keeps a pair of shadow cores lagging the live ones by at most Window
// macro-steps per layer, and on a sampling schedule clones them, re-steps
// the buffered suffix, compares the re-derived effects against the recorded
// ones, and runs the per-node invariant projections on the result. Memory
// is O(Window) on top of the shadow core state; check cost is O(Window)
// per sample, amortized to O(Window/Every) per macro-step.
//
// Observe callbacks run on the node's event loop, so check latency is paid
// inline — that is the overhead EXPERIMENTS.md E13 measures. Stats may be
// read from any goroutine.
type OnlineChecker struct {
	cfg      OnlineConfig
	p        types.ProcID
	register bool
	gc       bool

	mu      sync.Mutex
	baseDVS *dvscore.Node // lags the live core by len(winDVS) steps
	baseTO  *tocore.Node
	winDVS  []DVSRecord
	winTO   []TORecord
	local   localState
	since   int
	stats   OnlineStats
}

// NewOnlineChecker builds a checker for the node with the given core
// construction parameters (NewRecorder's, minus static: the online checker
// shadows the dynamic cores only).
func NewOnlineChecker(p types.ProcID, initial types.View, inP0, register, gc bool, cfg OnlineConfig) *OnlineChecker {
	return &OnlineChecker{
		cfg:      cfg.withDefaults(),
		p:        p,
		register: register,
		gc:       gc,
		baseDVS:  dvscore.NewNode(p, initial, inP0),
		baseTO:   tocore.NewNode(p, initial, inP0, false),
	}
}

// ObserveDVS buffers one VS-TO-DVS macro-step; install as a dvsg observer.
func (c *OnlineChecker) ObserveDVS(ev dvscore.Event, fx []dvscore.Effect) {
	rec := cloneDVSRecord(ev, fx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.winDVS = append(c.winDVS, rec)
	if len(c.winDVS) > c.cfg.Window {
		// Age the oldest record out of the window by advancing the shadow
		// core past it; the slice head moves, append reallocates eventually,
		// so retained memory stays O(Window).
		var out dvscore.Outbox
		dvscore.Step(c.baseDVS, c.winDVS[0].Ev, c.gc, &out)
		c.winDVS = c.winDVS[1:]
	}
	c.tickLocked()
}

// ObserveTO buffers one DVS-TO-TO macro-step; install as a tob observer.
func (c *OnlineChecker) ObserveTO(ev tocore.Event, fx []tocore.Effect) {
	rec := cloneTORecord(ev, fx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.winTO = append(c.winTO, rec)
	if len(c.winTO) > c.cfg.Window {
		var out tocore.Outbox
		// Recorded events were accepted by the live core, so the shadow
		// cannot reject them; a rejection would surface as a divergence at
		// the next sampled check anyway.
		tocore.Step(c.baseTO, c.winTO[0].Ev, c.register, &out)
		c.winTO = c.winTO[1:]
	}
	c.tickLocked()
}

func (c *OnlineChecker) tickLocked() {
	c.stats.Steps++
	c.since++
	if c.since >= c.cfg.Every {
		c.since = 0
		c.checkLocked()
	}
}

// checkLocked is one sampled check: clone the shadow cores, re-step the
// buffered suffix, compare effects, run the per-node projections.
func (c *OnlineChecker) checkLocked() {
	start := time.Now()
	dn := c.baseDVS.Clone()
	tn := c.baseTO.Clone()
	rep := &Report{}
	for i, rec := range c.winDVS {
		stepDVSRecord(rep, 0, c.p, c.gc, dn, i, rec)
	}
	for i, rec := range c.winTO {
		stepTORecord(rep, 0, c.p, c.register, tn, i, rec)
	}
	checkLocal(rep, 0, c.p, dn, nil, tn, &c.local)

	c.stats.Checks++
	c.stats.StepsChecked += uint64(len(c.winDVS) + len(c.winTO))
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
