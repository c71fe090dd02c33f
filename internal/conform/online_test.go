package conform

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// onlineChecker registers the scripted singleton node (driveScript's) with a
// fresh in-process checker. window, if positive, replaces the default window
// so a short script is cut into several.
func onlineChecker(t testing.TB, window int) (*StreamRecorder, *StreamNode) {
	t.Helper()
	c := NewOnlineChecker()
	if window > 0 {
		c.opts.WindowSteps = window
	}
	sn, err := c.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return c, sn
}

func TestOnlineCheckerCleanRun(t *testing.T) {
	// A window smaller than the run, so the shadow cores carry their state
	// across many of them.
	c, sn := onlineChecker(t, 8)
	driveScript(t, 20, sn.ObserveDVS, sn.ObserveTO, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Steps == 0 || st.Steps != st.StepsChecked {
		t.Errorf("observed %d steps, re-stepped %d", st.Steps, st.StepsChecked)
	}
	// The four per-node projections of a dynamic stack, after every window.
	if windows := (st.Steps + 7) / 8; st.Checks < 4*windows {
		t.Errorf("%d steps in %d windows of 8 got %d invariant checks, want at least %d", st.Steps, windows, st.Checks, 4*windows)
	}
	if st.Divergences != 0 || st.Violations != 0 || st.LastError != "" || len(st.Findings) != 0 {
		t.Errorf("clean run flagged: %+v", st)
	}
}

func TestOnlineCheckerCatchesTampering(t *testing.T) {
	c, sn := onlineChecker(t, 0)
	// Misreport the effects of one mid-run TO step: a corrupted shell (the
	// fault this checker exists to catch) would hand the observer an effect
	// list that does not match what the verified core derives.
	tampered := false
	skipped := 0
	obsTO := func(ev tocore.Event, fx []tocore.Effect) {
		if !tampered && len(fx) > 0 {
			if skipped < 2 { // let a couple of honest steps through first
				skipped++
			} else {
				tampered = true
				fx = nil
			}
		}
		sn.ObserveTO(ev, fx)
	}
	driveScript(t, 4, sn.ObserveDVS, obsTO, nil)
	if !tampered {
		t.Fatal("script produced no TO step with effects to tamper")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Divergences != 1 || st.Steps != st.StepsChecked {
		t.Fatalf("tampered effect stream not flagged once over the whole run: %+v", st)
	}
	if len(st.Findings) != 1 || st.LastError != st.Findings[0] || st.LastError == "" {
		t.Errorf("divergence left no rendered error: %+v", st)
	}
}

func TestOnlineCheckerDVSObservation(t *testing.T) {
	c, sn := onlineChecker(t, 0)
	// Tamper a DVS-layer record instead: both layers must be covered.
	tampered := false
	obsDVS := func(ev dvscore.Event, fx []dvscore.Effect) {
		if !tampered && len(fx) > 0 {
			tampered = true
			fx = nil
		}
		sn.ObserveDVS(ev, fx)
	}
	driveScript(t, 3, obsDVS, sn.ObserveTO, nil)
	if !tampered {
		t.Fatal("script produced no DVS step with effects to tamper")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Divergences != 1 || st.LastError == "" {
		t.Fatalf("tampered DVS stream not flagged: %+v", st)
	}
}

// TestOnlineCheckerWindowBounded: the checker's one back-pressure rule is the
// recorder's (feedPastStalledWriter), at the default window — it never
// buffers more than a full window plus the record racing the cut — and,
// released, the worker replays everything that was observed and finds
// nothing.
func TestOnlineCheckerWindowBounded(t *testing.T) {
	const total = 2*earlyCutSteps + defaultWindowSteps + earlyCutSteps
	var feed []func(*StreamNode)
	driveScript(t, total/6+1,
		func(ev dvscore.Event, fx []dvscore.Effect) {
			feed = append(feed, func(sn *StreamNode) { sn.ObserveDVS(ev, fx) })
		},
		func(ev tocore.Event, fx []tocore.Effect) {
			feed = append(feed, func(sn *StreamNode) { sn.ObserveTO(ev, fx) })
		}, nil)
	if len(feed) < total {
		t.Fatalf("script produced only %d steps", len(feed))
	}

	c, sn := onlineChecker(t, 0)
	fed := feedPastStalledWriter(t, c, defaultWindowSteps, func(i int) { feed[i](sn) })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if peak := c.PeakWindowSteps(); peak > defaultWindowSteps+1 {
		t.Errorf("peak buffered steps %d exceeds window %d + 1 node", peak, defaultWindowSteps)
	}
	st := c.Stats()
	if st.Steps != uint64(fed) || st.StepsChecked != st.Steps || st.Divergences != 0 || st.Violations != 0 || st.LastError != "" {
		t.Errorf("after release: %d fed, %+v", fed, st)
	}
}

// TestOnlineCheckerFaultyShellBounded: a shell that misreports every step
// must cost the checker a counter, not a list. The TO observer drops the
// effects of every step for 2,000 cycles; every one is counted, at most
// maxFindings are kept, and the live heap the checker holds afterwards is
// within a constant of what the same run holds when nothing is wrong.
func TestOnlineCheckerFaultyShellBounded(t *testing.T) {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	run := func(faulty bool) (st OnlineStats, dropped uint64, grew int64) {
		before := live()
		c, sn := onlineChecker(t, 512)
		driveScript(t, 2000, sn.ObserveDVS, func(ev tocore.Event, fx []tocore.Effect) {
			if faulty && len(fx) > 0 {
				dropped++
				fx = nil
			}
			sn.ObserveTO(ev, fx)
		}, nil)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		grew = live() - before
		if n := len(c.check.rep.Divergences) + len(c.check.rep.Violations); n != 0 {
			t.Errorf("faulty=%v: the engine's report still holds %d findings", faulty, n)
		}
		return c.Stats(), dropped, grew
	}
	_, _, clean := run(false)
	st, dropped, faulty := run(true)
	if dropped < 2000 || st.Divergences != dropped {
		t.Errorf("dropped the effects of %d steps, %d divergences counted", dropped, st.Divergences)
	}
	if len(st.Findings) != maxFindings || st.LastError != st.Findings[0] {
		t.Errorf("kept %d findings, want the first %d: %+v", len(st.Findings), maxFindings, st.Findings)
	}
	if st.Steps != st.StepsChecked {
		t.Errorf("observed %d steps, re-stepped %d", st.Steps, st.StepsChecked)
	}
	// Kept, the 4,000 rendered divergences are ≈ 0.8 MB.
	if extra := faulty - clean; extra > 256<<10 {
		t.Errorf("the faulty run left %d B more live heap than the clean one (%d vs %d)", extra, faulty, clean)
	}
}

// TestOnlineCheckerWindowBufferShrinks: the buffer a window is replayed from
// does not keep the capacity of the largest window for the rest of the run.
// One 3 MB window and then ten 18-byte ones (neither decodes: the buffer is
// what is under test) must leave it within 64 KiB.
func TestOnlineCheckerWindowBufferShrinks(t *testing.T) {
	job := func(size int) *chunkJob {
		lb := layerBuf{size: size}
		for ; size > 0; size -= blockSize {
			lb.blocks = append(lb.blocks, make([]byte, min(size, blockSize)))
		}
		return &chunkJob{parts: []partBuf{{layers: [numLayers]layerBuf{lb}}}}
	}
	if n, _ := job(5).WriteTo(io.Discard); n != 18 {
		t.Fatalf("the small window is %d bytes, want 18", n)
	}
	var c checker
	c.window(job(3 << 20))
	if c.buf.Cap() < 3<<20 {
		t.Fatalf("a 3 MB window left a %d-byte buffer", c.buf.Cap())
	}
	for i := 0; i < 10; i++ {
		c.window(job(5))
	}
	if c.buf.Cap() > 64<<10 {
		t.Errorf("after ten 18-byte windows the buffer still holds %d bytes", c.buf.Cap())
	}
}
