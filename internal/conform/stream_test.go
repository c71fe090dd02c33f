package conform

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// driveScript runs a singleton node's two cores through rounds of the same
// scripted broadcast cycle recordedRun uses, feeding every macro-step to the
// given observers (the signatures Recorder, StreamNode, and OnlineChecker
// all share). cut, if non-nil, is called between cycles — each cycle ends
// with the interface quiescent, so it is a safe place for a quiescent cut.
func driveScript(t testing.TB, rounds int,
	obsDVS func(dvscore.Event, []dvscore.Effect),
	obsTO func(tocore.Event, []tocore.Effect),
	cut func(round int)) {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	dn := dvscore.NewNode(p, initial, true)
	tn := tocore.NewNode(p, initial, true, false)

	stepDVS := func(ev dvscore.Event) []dvscore.Effect {
		var out dvscore.Outbox
		dvscore.Step(dn, ev, true, &out)
		obsDVS(ev, out.Effects)
		return out.Effects
	}
	stepTO := func(ev tocore.Event) []tocore.Effect {
		var out tocore.Outbox
		if err := tocore.Step(tn, ev, true, &out); err != nil {
			t.Fatalf("to step: %v", err)
		}
		obsTO(ev, out.Effects)
		return out.Effects
	}

	for round := 0; round < rounds; round++ {
		for _, fx := range stepTO(tocore.EvBroadcast{A: "a" + strconv.Itoa(round)}) {
			if send, ok := fx.(tocore.FxSend); ok {
				for _, dfx := range stepDVS(dvscore.EvClientSend{M: send.M}) {
					if sv, ok := dfx.(dvscore.FxSendVS); ok {
						for _, up := range stepDVS(dvscore.EvVSRecv{M: sv.M, From: p}) {
							if d, ok := up.(dvscore.FxDeliver); ok {
								stepTO(tocore.EvRecv{M: d.M, From: d.From})
							}
						}
						for _, up := range stepDVS(dvscore.EvVSSafe{M: sv.M, From: p}) {
							if s, ok := up.(dvscore.FxSafeInd); ok {
								stepTO(tocore.EvSafe{M: s.M, From: s.From})
							}
						}
					}
				}
			}
		}
		if cut != nil {
			cut(round)
		}
	}
}

// recordStreamed drives the scripted run into both a fresh in-memory
// recorder and a chunked stream in dir, returning the in-memory log for
// verdict comparison and the recorder for its window high-water mark.
func recordStreamed(t *testing.T, dir string, opts StreamOptions, rounds int, cut func(r *StreamRecorder, round int)) (NodeLog, *StreamRecorder) {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	sr, err := NewStreamRecorder(dir, opts)
	if err != nil {
		t.Fatalf("new stream recorder: %v", err)
	}
	sn, err := sr.Node(p, 0, initial, true, true, true, false)
	if err != nil {
		t.Fatalf("register stream node: %v", err)
	}
	rec := NewRecorder(p, 0, initial, true, true, true, false)
	driveScript(t, rounds,
		func(ev dvscore.Event, fx []dvscore.Effect) {
			rec.ObserveDVS(ev, fx)
			sn.ObserveDVS(ev, fx)
		},
		func(ev tocore.Event, fx []tocore.Effect) {
			rec.ObserveTO(ev, fx)
			sn.ObserveTO(ev, fx)
		},
		func(round int) {
			if cut != nil {
				cut(sr, round)
			}
		})
	return rec.Log(), sr
}

func TestStreamReplayMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	log, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 6, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	mem := Replay([]NodeLog{log})
	if err := mem.Err(); err != nil {
		t.Fatalf("in-memory replay: %v", err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("stream replay verdict: %v (%s)", err, rep)
	}
	if !rep.Sealed {
		t.Errorf("closed stream not sealed: %s", rep)
	}
	if rep.Truncated != "" {
		t.Errorf("closed stream reports truncation: %s", rep.Truncated)
	}
	if rep.Chunks < 2 {
		t.Errorf("window 4 over %d steps produced %d chunks, expected several", mem.DVSSteps+mem.TOSteps, rep.Chunks)
	}
	// Same steps replayed, same verdict: the streamed checker is the
	// in-memory checker over a different carrier.
	if rep.DVSSteps != mem.DVSSteps || rep.TOSteps != mem.TOSteps {
		t.Errorf("streamed replay covered dvs=%d/to=%d steps, in-memory dvs=%d/to=%d",
			rep.DVSSteps, rep.TOSteps, mem.DVSSteps, mem.TOSteps)
	}
	if rep.OK() != mem.OK() {
		t.Errorf("verdicts differ: streamed %v, in-memory %v", rep.OK(), mem.OK())
	}
}

func TestStreamRecorderMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	const window = 8
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: window}, 40, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	// The recorder's buffered-record high-water mark must be bounded by the
	// window no matter how long the run was: that is the O(window) claim.
	if peak := sr.PeakWindowSteps(); peak > window {
		t.Errorf("peak buffered steps %d exceeds window %d", peak, window)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			chunks++
		}
	}
	if chunks < 5 {
		t.Errorf("long run spilled only %d chunks", chunks)
	}
}

func TestStreamReplayQuiescentCuts(t *testing.T) {
	dir := t.TempDir()
	// A huge step window, so the only boundaries are the explicit quiescent
	// cuts between scripted cycles plus the sealing cut from Close.
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 1 << 20}, 4,
		func(r *StreamRecorder, round int) {
			if round == 1 {
				r.Cut(true)
			}
		})
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replay with mid-run quiescent cut: %v", err)
	}
	if rep.QuiescentCuts < 2 {
		t.Errorf("expected the explicit cut plus the sealing cut, got %d quiescent cuts (%s)", rep.QuiescentCuts, rep)
	}
	if rep.Checks == 0 {
		t.Error("no cross-node invariant checks ran at the quiescent cuts")
	}
	if rep.Partial {
		t.Errorf("singleton stream reported partial coverage: %s", rep)
	}
}

func TestStreamReplayLocalizesDivergenceToChunk(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 8, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	// Inject a divergence mid-run: rewrite one chunk past the first with the
	// recorded effects of one TO step dropped. The replayer re-derives the
	// effects, so it must flag the mismatch — and pin it to this window.
	tamperedSeq := 0
tamper:
	for seq := 2; ; seq++ {
		ch, err := readChunk(filepath.Join(dir, chunkSeg(seq)))
		if err != nil {
			break
		}
		for pi := range ch.Parts {
			for ri := range ch.Parts[pi].TO {
				if len(ch.Parts[pi].TO[ri].Fx) > 0 {
					ch.Parts[pi].TO[ri].Fx = nil
					if err := writeFramed(filepath.Join(dir, chunkSeg(seq)), encodeChunk(t, ch)); err != nil {
						t.Fatalf("rewrite chunk: %v", err)
					}
					tamperedSeq = seq
					break tamper
				}
			}
		}
	}
	if tamperedSeq == 0 {
		t.Fatal("found no TO record with effects past chunk 1 to tamper")
	}

	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if rep.OK() {
		t.Fatalf("replay accepted a tampered chunk: %s", rep)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("expected a divergence")
	}
	if got := rep.Divergences[0].Window; got != tamperedSeq {
		t.Errorf("first divergence attributed to window %d, tampered chunk %d (%s)",
			got, tamperedSeq, rep.Divergences[0])
	}
}

func TestStreamReplayRecoversSealedPrefixOfTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 8, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	sealed, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Chunks < 3 {
		t.Fatalf("need several chunks for a truncation test, got %d", sealed.Chunks)
	}

	// A crash mid-run leaves no footer and possibly a torn final chunk.
	// Simulate the worst accepted case: footer gone, last chunk cut off
	// mid-byte. The replayer must still check every intact chunk.
	if err := os.Remove(filepath.Join(dir, footerSeg)); err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, chunkSeg(sealed.Chunks))
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("replay of truncated trace must not hard-fail: %v", err)
	}
	if rep.Sealed {
		t.Error("truncated trace reported as sealed")
	}
	if rep.Truncated == "" {
		t.Error("truncated trace missing truncation reason")
	}
	if rep.Chunks != sealed.Chunks-1 {
		t.Errorf("replayed %d chunks of the %d-chunk prefix", rep.Chunks, sealed.Chunks-1)
	}
	if !rep.OK() {
		t.Errorf("intact prefix of a clean run replayed with findings: %s", rep)
	}
}

func TestStreamReplayDetectsMissingFooter(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 4, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, footerSeg)); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed || !strings.Contains(rep.Truncated, "footer") {
		t.Errorf("missing footer not reported: %s", rep)
	}
}

func TestStreamRecorderRegistration(t *testing.T) {
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(2))
	sn, err := sr.Node(p, 0, initial, true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Node(p, 0, initial, true, true, true, false); err == nil {
		t.Error("duplicate node registration accepted")
	}
	// WindowSteps 1: the first record cuts a chunk, which writes the header
	// and closes registration.
	sn.ObserveDVS(dvscore.EvClientRegister{}, nil)
	if _, err := sr.Node(types.ProcID(1), 0, initial, true, true, true, false); err == nil {
		t.Error("registration accepted after the header was written")
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestReplayRejectsDuplicateProcessLogs(t *testing.T) {
	log := recordedRun(t)
	rep := Replay([]NodeLog{log, log})
	if rep.OK() || rep.Err() == nil {
		t.Fatalf("duplicate logs for one process accepted: %s", rep)
	}
	if len(rep.Malformed) == 0 || !strings.Contains(rep.Malformed[0], "duplicate") {
		t.Errorf("expected a duplicate-process report, got %v", rep.Malformed)
	}
	// Malformed input must not be replayed at all: a second log for the same
	// process is not "the same process twice", it is two runs mixed up.
	if rep.DVSSteps != 0 || rep.TOSteps != 0 {
		t.Errorf("malformed log set was still replayed: %s", rep)
	}
}

func TestReplayRejectsDisagreeingInitialViews(t *testing.T) {
	log := recordedRun(t)
	other := NodeLog{P: 1, Initial: types.InitialView(types.RangeProcSet(2)), InP0: true}
	rep := Replay([]NodeLog{log, other})
	if rep.OK() || rep.Err() == nil {
		t.Fatalf("logs with different initial views accepted: %s", rep)
	}
	found := false
	for _, m := range rep.Malformed {
		if strings.Contains(m, "initial view") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an initial-view disagreement report, got %v", rep.Malformed)
	}
}

// unregisteredMsg is a types.Msg deliberately not registered with gob and
// given no wire tag, so encoding a trace that contains it fails partway
// through.
type unregisteredMsg struct{}

func (unregisteredMsg) MsgKey() string { return "unregistered" }
func (unregisteredMsg) EqualMsg(o types.Msg) bool {
	_, ok := o.(unregisteredMsg)
	return ok
}

func TestWriteFileFailureLeavesNoPartialTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.gob")

	good := []NodeLog{recordedRun(t)}
	if err := WriteFile(path, good); err != nil {
		t.Fatalf("write good trace: %v", err)
	}

	bad := []NodeLog{recordedRun(t)}
	bad[0].DVS = append(bad[0].DVS, DVSRecord{Ev: dvscore.EvClientSend{M: unregisteredMsg{}}})
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("encoding an unregistered message type did not fail")
	}

	// The failed write must leave the previous trace intact and no temp
	// litter behind.
	logs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("previous trace destroyed by failed write: %v", err)
	}
	if rep := Replay(logs); !rep.OK() {
		t.Errorf("previous trace corrupted by failed write: %s", rep)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "trace.gob" {
			t.Errorf("failed write left %s behind", e.Name())
		}
	}
}

func TestWriteFileFailureCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.gob")
	bad := []NodeLog{{P: 0, DVS: []DVSRecord{{Ev: dvscore.EvClientSend{M: unregisteredMsg{}}}}}}
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("encoding an unregistered message type did not fail")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed write left an artifact at %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed write left %d file(s) in the directory", len(entries))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestStreamReRecordShorterRunSeals: recording a short run over a longer
// one's directory must not leave the long run's tail chunks behind — they
// would read as a gap in a trace that was closed cleanly.
func TestStreamReRecordShorterRunSeals(t *testing.T) {
	dir := t.TempDir()
	_, long := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 8, nil)
	if err := long.Close(); err != nil {
		t.Fatal(err)
	}
	longRep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A crashed writer's orphan rides along; it must go too.
	orphan := filepath.Join(dir, ".seg-123.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	log, short := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 2, nil)
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || rep.Truncated != "" || !rep.OK() {
		t.Fatalf("re-recorded trace does not replay sealed and clean: %s", rep)
	}
	if rep.Chunks >= longRep.Chunks {
		t.Fatalf("short run has %d chunks, the long one had %d: not a shorter run", rep.Chunks, longRep.Chunks)
	}
	if rep.DVSSteps != len(log.DVS) || rep.TOSteps != len(log.TO) {
		t.Errorf("replayed dvs=%d/to=%d steps, recorded dvs=%d/to=%d", rep.DVSSteps, rep.TOSteps, len(log.DVS), len(log.TO))
	}
	if exists(filepath.Join(dir, chunkSeg(longRep.Chunks))) || exists(orphan) {
		t.Error("stale segments of the previous trace survived the re-record")
	}
}

func TestStreamRecorderRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 2, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamRecorder(dir, StreamOptions{}); err == nil || !strings.Contains(err.Error(), "notes.txt") {
		t.Fatalf("recorder over a directory with a foreign file: err=%v, want a refusal naming it", err)
	}
	// A refusal touches nothing: the previous trace still replays sealed.
	if rep, err := ReplayStream(dir); err != nil || !rep.Sealed || !exists(notes) {
		t.Errorf("refused re-record damaged the directory: rep=%v err=%v", rep, err)
	}
}

func TestStreamReplayRejectsV1Directory(t *testing.T) {
	dir := t.TempDir()
	if err := writeSegment(filepath.Join(dir, headerSeg), streamHeader{Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayStream(dir); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Errorf("v1 directory: err=%v, want a version error that says to re-record", err)
	}
}

// TestStreamUnencodableMsgIsStickyErr: a message type with no wire tag ends
// the trace loudly (sticky Err, no footer) — never a panic, never a trace
// that seals one record short.
func TestStreamUnencodableMsgIsStickyErr(t *testing.T) {
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	sn.ObserveDVS(dvscore.EvClientRegister{}, nil)
	sn.ObserveDVS(dvscore.EvClientSend{M: unregisteredMsg{}}, nil)
	first := sr.Err()
	if first == nil || !strings.Contains(first.Error(), "no wire tag") {
		t.Fatalf("Err() = %v after an unencodable message, want a no-wire-tag error", first)
	}
	sn.ObserveDVS(dvscore.EvClientRegister{}, nil) // dropped, not recorded past the hole
	if err := sr.Close(); !errors.Is(err, first) {
		t.Errorf("Close() = %v, want the sticky %v", err, first)
	}
	if exists(filepath.Join(dir, footerSeg)) {
		t.Error("a trace with an unencodable record was sealed")
	}
}

// TestStreamWindowBytesExact: the byte threshold counts encoded bytes, so a
// run of identical records cuts at exactly the predicted record.
func TestStreamWindowBytesExact(t *testing.T) {
	ev := dvscore.EvClientSend{M: types.ClientMsg("payload")}
	one, err := appendDVSRecord(nil, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	const perChunk = 10
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 1 << 20, WindowBytes: perChunk*len(one) - 1})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*perChunk; i++ {
		sn.ObserveDVS(ev, nil)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		ch, err := readChunk(filepath.Join(dir, chunkSeg(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ch.Parts[0].DVS); n != perChunk {
			t.Errorf("chunk %d holds %d records of %d bytes under a %d-byte window, want %d",
				seq, n, len(one), perChunk*len(one)-1, perChunk)
		}
	}
	if exists(filepath.Join(dir, chunkSeg(4))) {
		t.Error("more chunks than the byte window predicts")
	}
}

// TestStreamWriterFailureIsSticky takes the trace directory away mid-run.
// Observers must keep returning, the error must stick and come back from
// Close, no footer may be written, and what reached disk before the failure
// must replay clean.
func TestStreamWriterFailureIsSticky(t *testing.T) {
	root := t.TempDir()
	dir, moved := filepath.Join(root, "trace"), filepath.Join(root, "moved")
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 12, func(r *StreamRecorder, round int) {
		if round == 3 {
			waitFor(t, "chunk 2 on disk", func() bool { return exists(filepath.Join(dir, chunkSeg(2))) })
			if err := os.Rename(dir, moved); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Eight rounds of several cuts each ran after the rename: the writer
	// has hit the missing directory and a later cut has seen it gone.
	first := sr.Err()
	if first == nil {
		t.Fatal("Err() is nil after the trace directory vanished")
	}
	if again := sr.Err(); again != first {
		t.Errorf("Err() not sticky: %v then %v", first, again)
	}
	if err := sr.Close(); err != first {
		t.Errorf("Close() = %v, want the sticky %v", err, first)
	}
	if exists(filepath.Join(moved, footerSeg)) || exists(filepath.Join(dir, footerSeg)) {
		t.Error("a footer was written after a write failure")
	}
	rep, err := ReplayStream(moved)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed || rep.Truncated == "" {
		t.Errorf("trace of a failed recorder reads as sealed: %s", rep)
	}
	if rep.Chunks < 2 || !rep.OK() {
		t.Errorf("sealed prefix did not replay clean: %s", rep)
	}
}

// TestStreamWriterBackpressure stalls the writer and checks the bound the
// design promises: one chunk in flight, one queued, and the cutter of the
// third blocked — so the open window never outgrows its threshold — with
// every record on disk once the writer resumes.
func TestStreamWriterBackpressure(t *testing.T) {
	const window = 4
	var evs []tocore.Event
	driveScript(t, 12, func(dvscore.Event, []dvscore.Effect) {},
		func(ev tocore.Event, _ []tocore.Effect) { evs = append(evs, ev) }, nil)
	if len(evs) < 4*window {
		t.Fatalf("script produced only %d TO events", len(evs))
	}

	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: window})
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := make(chan int, len(evs)), make(chan struct{})
	sr.beforeWrite = func(seq int) {
		stalled <- seq
		<-release
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var fed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ev := range evs {
			sn.ObserveTO(ev, nil)
			fed.Add(1)
		}
	}()

	if seq := <-stalled; seq != 1 {
		t.Fatalf("writer started with chunk %d", seq)
	}
	// Records 1-4 are in flight, 5-8 queued; record 12 triggers the third
	// cut, which must block inside Observe until the writer moves.
	waitFor(t, "the feeder to reach the blocked cut", func() bool { return fed.Load() == 3*window-1 })
	time.Sleep(50 * time.Millisecond)
	if n := fed.Load(); n != 3*window-1 {
		t.Errorf("feeder got %d records in with the writer stalled, want it blocked at %d", n, 3*window-1)
	}
	if exists(filepath.Join(dir, chunkSeg(1))) {
		t.Error("a chunk reached disk past the stalled writer")
	}

	close(release)
	<-done
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if peak := sr.PeakWindowSteps(); peak > window+1 {
		t.Errorf("peak buffered steps %d exceeds window %d + 1 node", peak, window)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The events replay against a fresh core with no recorded effects, so
	// divergences are expected; what is pinned is that none was lost.
	if !rep.Sealed || rep.TOSteps != len(evs) {
		t.Errorf("after release: %d of %d records replayed, sealed=%v (%s)", rep.TOSteps, len(evs), rep.Sealed, rep.Truncated)
	}
}

// TestStreamChunkSizeFollowsWriter: from earlyCutSteps on, a window is cut as
// soon as the writer has room for it, and keeps growing while it has none —
// so a slow disk gets fewer, larger segments and no observer waits for it
// before the window is full.
func TestStreamChunkSizeFollowsWriter(t *testing.T) {
	const window = 3 * earlyCutSteps
	ev := dvscore.EvClientSend{M: types.ClientMsg("payload")}
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: window})
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := make(chan int, 8), make(chan struct{})
	sr.beforeWrite = func(seq int) {
		stalled <- seq
		<-release
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 is cut early and stalls in the writer, chunk 2 is cut early
	// into the free queue slot, and with the queue full the third window
	// runs to the threshold, whose cut blocks.
	const blockedAt = 2*earlyCutSteps + window
	var fed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < blockedAt+earlyCutSteps; i++ {
			sn.ObserveDVS(ev, nil)
			fed.Add(1)
		}
	}()
	if seq := <-stalled; seq != 1 {
		t.Fatalf("writer started with chunk %d", seq)
	}
	waitFor(t, "the feeder to reach the blocked cut", func() bool { return fed.Load() == blockedAt-1 })
	time.Sleep(50 * time.Millisecond)
	if n := fed.Load(); n != blockedAt-1 {
		t.Errorf("feeder got %d records in with the writer stalled, want it blocked at %d", n, blockedAt-1)
	}
	close(release)
	<-done
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if peak := sr.PeakWindowSteps(); peak > window {
		t.Errorf("peak buffered steps %d exceeds window %d", peak, window)
	}
	for seq, want := range []int{earlyCutSteps, earlyCutSteps, window, earlyCutSteps} {
		ch, err := readChunk(filepath.Join(dir, chunkSeg(seq+1)))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ch.Parts[0].DVS); n != want {
			t.Errorf("chunk %d holds %d records, want %d", seq+1, n, want)
		}
	}
	if exists(filepath.Join(dir, chunkSeg(5))) || !exists(filepath.Join(dir, footerSeg)) {
		t.Error("want exactly four chunks and a footer")
	}
}

// TestStreamReplayOfOpenRecorder: a trace whose recorder is still running
// (or died without Close) replays its sealed prefix clean and says so.
func TestStreamReplayOfOpenRecorder(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 6, nil)
	waitFor(t, "chunk 3 on disk", func() bool { return exists(filepath.Join(dir, chunkSeg(3))) })
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed || !strings.Contains(rep.Truncated, "footer") {
		t.Errorf("open trace not reported as unsealed: %s", rep)
	}
	if rep.Chunks < 3 || !rep.OK() {
		t.Errorf("sealed prefix of an open trace did not replay clean: %s", rep)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
}
