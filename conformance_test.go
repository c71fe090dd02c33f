package dvs

import (
	"runtime"
	"strconv"
	"testing"
	"time"
)

// recordedCluster starts a cluster that records into a trace stream in a
// temp directory. harvest closes the cluster, seals the stream and returns
// the trace directory with its decoded per-node logs.
func recordedCluster(t *testing.T, cfg Config) (cl *Cluster, harvest func() (string, []TraceLog)) {
	t.Helper()
	dir := t.TempDir()
	stream, err := NewTraceStream(dir, TraceStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stream = stream
	if cl, err = NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, func() (string, []TraceLog) {
		t.Helper()
		cl.Close()
		if err := stream.Close(); err != nil {
			t.Fatalf("sealing trace stream: %v", err)
		}
		return dir, readTrace(t, dir)
	}
}

// readTrace decodes a sealed trace directory into its per-node logs.
func readTrace(t *testing.T, dir string) []TraceLog {
	t.Helper()
	logs, err := ReadTrace(dir)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return logs
}

// TestConformanceClusterReplay is the end-to-end trace-conformance check on
// the in-memory stack: a recording cluster runs through broadcasts,
// partitions and heals; after Close the decoded per-node logs are replayed
// through the protocol cores and must re-derive every effect exactly, and
// the reconstructed final cut must satisfy the paper's invariants.
func TestConformanceClusterReplay(t *testing.T) {
	cl, harvest := recordedCluster(t, Config{Processes: 5, Seed: 7})
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 20; i++ {
		cl.Process(i % 5).Broadcast("m" + strconv.Itoa(i))
	}
	time.Sleep(100 * time.Millisecond)

	cl.Partition([]int{0, 1, 2}, []int{3, 4})
	time.Sleep(150 * time.Millisecond)
	for i := 20; i < 30; i++ {
		cl.Process(0).Broadcast("m" + strconv.Itoa(i))
	}
	time.Sleep(100 * time.Millisecond)
	cl.Heal()
	time.Sleep(300 * time.Millisecond)

	_, logs := harvest()
	if len(logs) != 5 {
		t.Fatalf("ReadTrace returned %d logs, want 5", len(logs))
	}
	steps := 0
	for _, lg := range logs {
		steps += len(lg.DVS) + len(lg.TO)
	}
	if steps == 0 {
		t.Fatal("no macro-steps recorded")
	}

	rep := ReplayTrace(logs)
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Logf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("conformance replay failed: %v (%s)", err, rep)
	}
	t.Logf("conformance: %s", rep)
}

// TestConformanceTraceFileRoundTrip checks the record-to-directory /
// replay-from-directory path the dvsim -record/-replay flags use, and that
// the decoded view of the same directory replays to the same step counts.
func TestConformanceTraceFileRoundTrip(t *testing.T) {
	cl, harvest := recordedCluster(t, Config{Processes: 3, Seed: 11})
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 10; i++ {
		cl.Process(i % 3).Broadcast("x" + strconv.Itoa(i))
	}
	time.Sleep(150 * time.Millisecond)
	dir, logs := harvest()

	srep, err := ReplayTraceStream(dir)
	if err != nil {
		t.Fatalf("replay from directory: %v", err)
	}
	if err := srep.Err(); err != nil || !srep.Sealed {
		t.Fatalf("replay from directory: %v (%s)", err, srep)
	}
	rep := ReplayTrace(logs)
	if rep.Err() != nil {
		t.Fatalf("replay of decoded logs: %v", rep.Err())
	}
	if rep.DVSSteps == 0 || rep.DVSSteps != srep.DVSSteps || rep.TOSteps != srep.TOSteps {
		t.Errorf("decoded logs replayed dvs=%d/to=%d steps, the directory dvs=%d/to=%d",
			rep.DVSSteps, rep.TOSteps, srep.DVSSteps, srep.TOSteps)
	}
}

// TestConformanceStreamedCluster runs the same end-to-end check with a tight
// chunk window: replaying the directory chunk by chunk must reach the same
// verdict over the same steps as replaying its decoded logs as one window,
// while the recorder's buffered window stays bounded.
func TestConformanceStreamedCluster(t *testing.T) {
	dir := t.TempDir()
	const window = 512
	stream, err := NewTraceStream(dir, TraceStreamOptions{WindowSteps: window})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(Config{Processes: 5, Seed: 7, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 40; i++ {
		cl.Process(i % 5).Broadcast("m" + strconv.Itoa(i))
	}
	time.Sleep(100 * time.Millisecond)
	cl.Partition([]int{0, 1, 2}, []int{3, 4})
	time.Sleep(150 * time.Millisecond)
	for i := 40; i < 60; i++ {
		cl.Process(0).Broadcast("m" + strconv.Itoa(i))
	}
	time.Sleep(100 * time.Millisecond)
	cl.Heal()
	time.Sleep(300 * time.Millisecond)
	cl.Close()
	if err := stream.Close(); err != nil {
		t.Fatalf("sealing stream: %v", err)
	}

	mem := ReplayTrace(readTrace(t, dir))
	rep, err := ReplayTraceStream(dir)
	if err != nil {
		t.Fatalf("streamed replay: %v", err)
	}
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Logf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("streamed conformance replay failed: %v (%s)", err, rep)
	}
	if !rep.Sealed {
		t.Errorf("closed stream not sealed: %s", rep)
	}
	if rep.OK() != mem.OK() {
		t.Errorf("streamed verdict %v, one-window verdict %v (%v)", rep.OK(), mem.OK(), mem.Err())
	}
	if rep.DVSSteps != mem.DVSSteps || rep.TOSteps != mem.TOSteps {
		t.Errorf("streamed replay covered dvs=%d/to=%d steps, one-window dvs=%d/to=%d",
			rep.DVSSteps, rep.TOSteps, mem.DVSSteps, mem.TOSteps)
	}
	if peak := stream.PeakWindowSteps(); peak > window {
		t.Errorf("recorder buffered %d steps, window %d", peak, window)
	}
	t.Logf("streamed conformance: %s (peak window %d)", rep, stream.PeakWindowSteps())
}

// TestOnlineCheckerCluster runs the in-process checker on every process of a
// healthy cluster, in both modes, through broadcasts, a partition and a heal:
// every observed macro-step must have been re-executed by the time the
// cluster is closed, the per-node invariant suite (the dynamic projections;
// STATIC-primary-quorum-local and the TO pair in static mode) must have run,
// nothing may be flagged, and no checker's worker may outlive Close.
func TestOnlineCheckerCluster(t *testing.T) {
	for _, mode := range []Mode{ModeDynamic, ModeStatic} {
		t.Run(mode.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cl, err := NewCluster(Config{Processes: 3, Seed: 13, Mode: mode, Online: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			time.Sleep(50 * time.Millisecond)
			for i := 0; i < 30; i++ {
				cl.Process(i % 3).Broadcast("m" + strconv.Itoa(i))
			}
			time.Sleep(100 * time.Millisecond)
			cl.Partition([]int{0, 1}, []int{2})
			time.Sleep(150 * time.Millisecond)
			cl.Heal()
			time.Sleep(200 * time.Millisecond)
			cl.Close()

			for _, p := range cl.Processes() {
				cs := p.CheckStats()
				if cs.Steps == 0 || cs.Steps != cs.StepsChecked || cs.Checks == 0 {
					t.Errorf("process %s: %d steps observed, %d re-stepped, %d invariant checks", p.ID(), cs.Steps, cs.StepsChecked, cs.Checks)
				}
				if cs.Divergences != 0 || cs.Violations != 0 || cs.LastError != "" {
					t.Errorf("process %s online checker flagged a healthy run: %+v", p.ID(), cs)
				}
				if p.VSStats().ViewsInstalled < 2 {
					t.Errorf("process %s installed %d views: the partition never happened", p.ID(), p.VSStats().ViewsInstalled)
				}
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestConformanceStaticClusterReplay is the end-to-end trace-conformance
// check on the static-primary baseline: a recording static-mode cluster
// runs through broadcasts, a partition, and a heal; the replay re-executes
// the DVS-layer records through dvscore.StaticNode and the TO-layer records
// through tocore, and the final cut must satisfy the static suite (primaries are
// quorums of P0, pairwise intersecting, confirmed prefixes consistent).
func TestConformanceStaticClusterReplay(t *testing.T) {
	cl, harvest := recordedCluster(t, Config{Processes: 5, Seed: 7, Mode: ModeStatic})
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 20; i++ {
		cl.Process(i % 5).Broadcast("s" + strconv.Itoa(i))
	}
	time.Sleep(100 * time.Millisecond)
	cl.Partition([]int{0, 1, 2}, []int{3, 4})
	time.Sleep(150 * time.Millisecond)
	cl.Heal()
	time.Sleep(300 * time.Millisecond)
	_, logs := harvest()
	if len(logs) != 5 {
		t.Fatalf("ReadTrace returned %d logs, want 5", len(logs))
	}
	steps := 0
	for _, lg := range logs {
		if !lg.Static {
			t.Fatalf("process %s log not marked static", lg.P)
		}
		steps += len(lg.DVS) + len(lg.TO)
	}
	if steps == 0 {
		t.Fatal("no macro-steps recorded")
	}

	rep := ReplayTrace(logs)
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Logf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("static conformance replay failed: %v (%s)", err, rep)
	}
	t.Logf("static conformance: %s", rep)
}

// TestConformanceStaticStreamed runs the static baseline through the
// chunked on-disk recorder and replays the sealed directory cold — the path
// `dvsim -scenario availability -record` takes for its static variant.
func TestConformanceStaticStreamed(t *testing.T) {
	dir := t.TempDir()
	stream, err := NewTraceStream(dir, TraceStreamOptions{WindowSteps: 256})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(Config{Processes: 3, Seed: 11, Mode: ModeStatic, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 30; i++ {
		cl.Process(i % 3).Broadcast("s" + strconv.Itoa(i))
	}
	time.Sleep(200 * time.Millisecond)
	cl.Close()
	if err := stream.Close(); err != nil {
		t.Fatalf("sealing stream: %v", err)
	}

	rep, err := ReplayTraceStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed {
		t.Fatalf("stream not sealed: %s (truncated: %s)", rep, rep.Truncated)
	}
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Logf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("static streamed replay failed: %v (%s)", err, rep)
	}
	if rep.DVSSteps == 0 || rep.TOSteps == 0 {
		t.Fatalf("static streamed replay re-stepped nothing: %s", rep)
	}
	t.Logf("static streamed conformance: %s", rep)
}
