package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names, one per boundary the benchmark can interpose on from outside
// the layers. A span covers one call across that boundary.
const (
	spTobSubmit   = iota // harness closure run by vsg.Node.Do: tob.Broadcast
	spDvsgUp             // vsg.Handler upcall into dvsg
	spTobUp              // dvsg.Handler upcall into tob
	spMcastHook          // tob.DeliverHook into the mcast coordinator
	spObserve            // dvsg/tob observer into the conform stream node
	spMuxSend            // Transport.Send on a GroupMux port
	spNetSend            // Transport.Send on the fabric or the TCP transport
	spMcastSubmit        // harness call of mcast.Coordinator.Submit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tob.submit", "dvsg.up", "tob.up", "mcast.hook", "conform.observe",
	"net.groupmux.send", "net.send", "mcast.submit",
}

// span is one recorded call: parent is the index of the enclosing span in
// the same buffer, -1 at the top level of the event loop.
type span struct {
	name       uint8
	parent     int32
	start, end int64 // ns since the run's base time
}

type spanAgg struct {
	count int64
	total int64 // ns inside spans of this name
	self  int64 // total minus the child spans inside them
}

type openSpan struct {
	name  uint8
	idx   int32
	start int64
	child int64 // ns covered by already-closed child spans
}

// loopTrace records the spans of one goroutine (an event loop, or the
// sender). Calls nest strictly on one goroutine, so an explicit stack gives
// each span its parent and each parent its children's time without locks.
// Totals are accumulated on the fly; raw spans are kept only up to the
// preallocated capacity (zero unless -out asks for them).
type loopTrace struct {
	base    time.Time
	agg     [numSpanNames]spanAgg
	stack   [32]openSpan
	depth   int
	spans   []span
	dropped int
}

func newLoopTrace(base time.Time, keep int) *loopTrace {
	return &loopTrace{base: base, spans: make([]span, 0, keep)}
}

func (t *loopTrace) begin(name uint8) {
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		parent := int32(-1)
		if t.depth > 0 {
			parent = t.stack[t.depth-1].idx
		}
		t.spans = append(t.spans, span{name: name, parent: parent})
	} else if cap(t.spans) > 0 {
		t.dropped++
	}
	t.stack[t.depth] = openSpan{name: name, idx: idx, start: int64(time.Since(t.base))}
	t.depth++
}

func (t *loopTrace) end() {
	now := int64(time.Since(t.base))
	t.depth--
	o := &t.stack[t.depth]
	dur := now - o.start
	a := &t.agg[o.name]
	a.count++
	a.total += dur
	a.self += dur - o.child
	if t.depth > 0 {
		t.stack[t.depth-1].child += dur
	}
	if o.idx >= 0 {
		t.spans[o.idx].start, t.spans[o.idx].end = o.start, now
	}
}

// spanTotals is the sum of the per-name aggregates over a set of loops.
type spanTotals [numSpanNames]spanAgg

func (s *spanTotals) add(a *[numSpanNames]spanAgg) {
	for i := range a {
		s[i].count += a[i].count
		s[i].total += a[i].total
		s[i].self += a[i].self
	}
}

func (s spanTotals) minus(o spanTotals) spanTotals {
	for i := range s {
		s[i].count -= o[i].count
		s[i].total -= o[i].total
		s[i].self -= o[i].self
	}
	return s
}

// selfSum is the time covered by spans of any name: the sum of self times
// counts every instant inside at least one span exactly once per loop.
func (s spanTotals) selfSum() int64 {
	var ns int64
	for i := range s {
		ns += s[i].self
	}
	return ns
}

// writeSpans writes the kept raw spans, one line each:
// loop name start_ns end_ns parent_index.
func writeSpans(path string, loops []*loopTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# loop name start_ns end_ns parent")
	for li, t := range loops {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d %s %d %d %d\n", li, spanNames[s.name], s.start, s.end, s.parent)
		}
		if t.dropped > 0 {
			fmt.Fprintf(w, "# loop %d: %d spans beyond the buffer not kept\n", li, t.dropped)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return f.Close()
}
