package conform

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/types"
)

// maxFindings bounds what a checker keeps of what it found: a node left on
// beside a faulty shell counts every finding and renders the first few.
const maxFindings = 8

// OnlineStats is a snapshot of an in-process checker's counters, exported by
// dvsnode through the expvar surface.
type OnlineStats struct {
	Steps         uint64   // macro-steps observed
	Checks        uint64   // invariant checks evaluated: the per-node suite after every window
	StepsChecked  uint64   // macro-steps re-executed and compared; equals Steps once closed
	Divergences   uint64   // steps whose re-derived effects differ from the observed ones
	Violations    uint64   // failed invariant checks
	LastError     string   // the first finding, or why the checker stopped early
	Findings      []string // the first maxFindings flagged windows, each with its first findings rendered
	CheckNanos    int64    // cumulative wall time the worker spent on windows
	MaxCheckNanos int64    // slowest single window
	Stalls        uint64   // cuts that found the worker a full window behind and waited for it
}

// Add folds another checker's snapshot into s: counters sum, the slowest
// window and the first error win.
func (s *OnlineStats) Add(o OnlineStats) {
	s.Steps += o.Steps
	s.Checks += o.Checks
	s.StepsChecked += o.StepsChecked
	s.Divergences += o.Divergences
	s.Violations += o.Violations
	if s.LastError == "" {
		s.LastError = o.LastError
	}
	s.Findings = append(s.Findings, o.Findings[:min(len(o.Findings), maxFindings-len(s.Findings))]...)
	s.CheckNanos += o.CheckNanos
	s.MaxCheckNanos = max(s.MaxCheckNanos, o.MaxCheckNanos)
	s.Stalls += o.Stalls
}

// NewOnlineChecker returns the in-process conformance checker: a recorder
// with no directory, whose writer goroutine hands every cut chunk to the
// replay engine instead of the disk. Observation is the recorder's, so the
// observing event loop never steps a core, decodes a record or evaluates an
// invariant, and waits only when the worker is a full window behind. Every
// macro-step is re-executed once: within a window of steps while the run
// lasts, the tail at Close. Register the stack with Node, Close it once the
// stack has stopped, read Stats at any time.
func NewOnlineChecker() *StreamRecorder {
	return &StreamRecorder{
		opts:  StreamOptions{}.withDefaults(),
		byP:   make(map[types.ProcID]*StreamNode),
		check: &checker{},
	}
}

// Stats returns a snapshot of the checker's counters. Thread-safe, and valid
// after Close; while an observer is stalled it waits with it.
func (r *StreamRecorder) Stats() OnlineStats {
	err := r.Err()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := OnlineStats{Steps: uint64(r.cut + r.steps), Stalls: r.stalls}
	if c := r.check; c != nil {
		c.mu.Lock()
		st.Add(c.stats)
		c.mu.Unlock()
	}
	if err != nil && st.LastError == "" {
		st.LastError = err.Error()
	}
	return st
}

// checker is what a directory-less recorder's writer feeds: the replay engine
// over the registered nodes (built where the header would be written), and
// the counters each window's findings are folded into. Engine and report
// belong to the writer goroutine, and to Close once that has exited.
type checker struct {
	e   *replayer
	rep Report       // e's report; its finding lists are emptied after every window
	buf bytes.Buffer // the window's payload, reused

	mu    sync.Mutex  // guards stats; the writer never holds it across a receive
	stats OnlineStats // the engine's half: Steps and Stalls are the recorder's
}

// window replays one cut chunk from the payload a directory would have
// stored (the writer's encoder, into buf), through its decoder. A window
// that fills less than a quarter of a buffer grown past one block lets the
// buffer go, so one large window is not held for the rest of the run.
func (c *checker) window(job *chunkJob) error {
	start := time.Now()
	c.buf.Reset()
	job.WriteTo(&c.buf)
	payload := c.buf.Bytes()
	if c.buf.Cap() > blockSize && 4*len(payload) < c.buf.Cap() {
		c.buf = bytes.Buffer{}
	}
	ch, err := decodeChunk(payload)
	if err != nil {
		return fmt.Errorf("conform: check chunk %d: %w", job.seq, err)
	}
	c.e.window(ch)
	c.fold(start)
	return nil
}

// end runs the engine's end-of-trace suite where a directory gets its
// footer: Close's cut is quiescent, every node having stopped.
func (c *checker) end() {
	start := time.Now()
	c.e.end(true)
	c.fold(start)
}

// fold moves what the engine has found since start into the counters: every
// finding counted, a flagged window's summary kept while there is room, the
// report's lists emptied. Records in a layer the node has no core for count
// as divergences.
func (c *checker) fold(start time.Time) {
	rep, nanos := &c.rep, time.Since(start).Nanoseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.stats
	if err := rep.Err(); err != nil && len(st.Findings) < maxFindings {
		st.Findings = append(st.Findings, err.Error())
		st.LastError = st.Findings[0]
	}
	st.Checks, st.StepsChecked = uint64(rep.Checks), uint64(rep.DVSSteps+rep.TOSteps+rep.McastSteps)
	st.Divergences += uint64(len(rep.Malformed) + len(rep.Divergences))
	st.Violations += uint64(len(rep.Violations))
	rep.Malformed, rep.Divergences, rep.Violations = nil, nil, nil
	st.CheckNanos += nanos
	st.MaxCheckNanos = max(st.MaxCheckNanos, nanos)
}
