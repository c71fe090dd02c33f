package conform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
	"repro/internal/wire"
)

// driveScript runs a singleton node's two cores through rounds of the same
// scripted broadcast cycle recordedRun uses, feeding every macro-step to the
// given observers (StreamNode's signatures). cut, if non-nil, is called
// between cycles — each cycle ends with the interface quiescent, so it is a
// safe place for a quiescent cut.
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
		for _, fx := range stepTO(tocore.Event{Kind: tocore.EvBroadcast, A: "a" + strconv.Itoa(round)}) {
			if fx.Kind == tocore.FxSend {
				for _, dfx := range stepDVS(dvscore.Event{Kind: dvscore.EvClientSend, M: fx.M}) {
					if dfx.Kind == dvscore.FxSendVS {
						for _, up := range stepDVS(dvscore.Event{Kind: dvscore.EvVSRecv, M: dfx.M, From: p}) {
							if up.Kind == dvscore.FxDeliver {
								stepTO(tocore.Event{Kind: tocore.EvRecv, M: up.M, From: up.From})
							}
						}
						for _, up := range stepDVS(dvscore.Event{Kind: dvscore.EvVSSafe, M: dfx.M, From: p}) {
							if up.Kind == dvscore.FxSafeInd {
								stepTO(tocore.Event{Kind: tocore.EvSafe, M: up.M, From: up.From})
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

// stepCount is how many macro-steps of each layer a scripted run observed.
type stepCount struct{ dvs, to int }

// recordStreamed drives the scripted run into a chunked stream in dir,
// returning the observed step counts and the recorder (not yet closed).
func recordStreamed(t *testing.T, dir string, opts StreamOptions, rounds int, cut func(r *StreamRecorder, round int)) (stepCount, *StreamRecorder) {
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
	var n stepCount
	driveScript(t, rounds,
		func(ev dvscore.Event, fx []dvscore.Effect) {
			n.dvs++
			sn.ObserveDVS(ev, fx)
		},
		func(ev tocore.Event, fx []tocore.Effect) {
			n.to++
			sn.ObserveTO(ev, fx)
		},
		func(round int) {
			if cut != nil {
				cut(sr, round)
			}
		})
	return n, sr
}

// tamperChunk rewrites the first chunk at or past seq 2 that holds a TO
// record with effects, dropping that record's effects, and returns the
// chunk's sequence number.
func tamperChunk(t *testing.T, dir string) int {
	t.Helper()
	for seq := 2; ; seq++ {
		path := filepath.Join(dir, chunkSeg(seq))
		ch, err := readSegment(path, decodeChunk)
		if err != nil {
			t.Fatal("found no TO record with effects past chunk 1 to tamper")
		}
		for pi := range ch.Parts {
			for ri := range ch.Parts[pi].TO {
				if len(ch.Parts[pi].TO[ri].Fx) > 0 {
					ch.Parts[pi].TO[ri].Fx = nil
					if err := writeSegment(path, encodeChunk(t, ch)); err != nil {
						t.Fatalf("rewrite chunk: %v", err)
					}
					return seq
				}
			}
		}
	}
}

// TestStreamReplayMatchesInMemory: the engine reaches the same result
// whether a trace is fed to it chunk by chunk (ReplayStream) or decoded and
// fed as one window (Replay over ReadStream) — same step counts, same
// verdict, and on a tampered record the same first divergence.
func TestStreamReplayMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	steps, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 6, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	both := func() (*Report, *StreamReport) {
		t.Helper()
		one := Replay([]NodeLog{readLog(t, dir)})
		many, err := ReplayStream(dir)
		if err != nil {
			t.Fatalf("stream replay: %v", err)
		}
		return one, many
	}
	one, many := both()
	if err := one.Err(); err != nil {
		t.Fatalf("one-window replay: %v", err)
	}
	if err := many.Err(); err != nil {
		t.Fatalf("many-window replay: %v (%s)", err, many)
	}
	if !many.Sealed {
		t.Errorf("closed stream not sealed: %s", many)
	}
	if many.Truncated != "" {
		t.Errorf("closed stream reports truncation: %s", many.Truncated)
	}
	if many.Chunks < 2 {
		t.Errorf("window 4 over %d steps produced %d chunks, expected several", steps.dvs+steps.to, many.Chunks)
	}
	if one.DVSSteps != steps.dvs || one.TOSteps != steps.to || many.DVSSteps != steps.dvs || many.TOSteps != steps.to {
		t.Errorf("observed dvs=%d/to=%d steps, one window replayed dvs=%d/to=%d, many windows dvs=%d/to=%d",
			steps.dvs, steps.to, one.DVSSteps, one.TOSteps, many.DVSSteps, many.TOSteps)
	}

	seq := tamperChunk(t, dir)
	one, many = both()
	if one.OK() || many.OK() {
		t.Fatalf("tampered trace accepted: one window %s, many windows %s", one, many)
	}
	if len(one.Divergences) == 0 || len(many.Divergences) == 0 {
		t.Fatalf("tampered record not reported as a divergence: one window %s, many windows %s", one, many)
	}
	d1, dn := one.Divergences[0], many.Divergences[0]
	if d1.Window != 0 || dn.Window != seq {
		t.Errorf("first divergence attributed to windows %d and %d, want 0 and %d", d1.Window, dn.Window, seq)
	}
	dn.Window = 0
	if d1 != dn {
		t.Errorf("first divergences differ:\n one window:   %s\n many windows: %s", d1, dn)
	}
	if one.DVSSteps != many.DVSSteps || one.TOSteps != many.TOSteps {
		t.Errorf("step counts differ on the tampered trace: %s vs %s", one, many)
	}
}

// TestStreamRecorderMemoryBounded: the open window never outgrows its
// threshold however long the run, and blocks outlive their windows only in
// the writer's bounded pool. A writer stalled until windows fill to
// WindowBytes, then released, leaves at most poolBlocks pooled and no
// written-out job holding a block, and a record allocates nothing while the
// pool has blocks.
func TestStreamRecorderMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	const window = 8
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: window}, 40, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
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

	// Three windows of 32 blocks each, more than the pool keeps.
	const windowBytes = 32 * blockSize
	if sr, err = NewStreamRecorder(t.TempDir(), StreamOptions{WindowBytes: windowBytes}); err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*chunkJob // every job the writer took, in order
	seen, release := make(chan *chunkJob, 16), make(chan struct{})
	sr.beforeWrite = func(job *chunkJob) {
		seen <- job
		<-release
	}
	big := tocore.Event{Kind: tocore.EvBroadcast, A: strings.Repeat("x", 1000)}
	rec, _ := toCodec.append(nil, big, nil)
	perWindow := (windowBytes + len(rec) - 1) / len(rec)
	var fed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*perWindow+100; i++ {
			sn.ObserveTO(big, nil)
			fed.Add(1)
		}
	}()
	jobs = append(jobs, <-seen)
	waitFor(t, "the feeder to block on the third cut", func() bool { return int(fed.Load()) == 3*perWindow-1 })
	close(release)
	<-done
	sr.Cut(true) // the tail
	sr.Cut(true) // nothing: its write marks every earlier job released
	sr.mu.Lock()
	w, last := sr.w, sr.seq
	sr.mu.Unlock()
	for jobs[len(jobs)-1].seq != last {
		jobs = append(jobs, <-seen)
	}
	for _, job := range jobs[:3] {
		if size := job.parts[0].layers[layerTO].size; size < windowBytes {
			t.Errorf("chunk %d cut at %d bytes, below the %d-byte window", job.seq, size, windowBytes)
		}
	}
	if pooled := len(w.pool) * blockSize; pooled > poolBlocks*blockSize || len(w.pool) != poolBlocks {
		t.Errorf("pool holds %d bytes after %d windows, want its bound %d", pooled, len(jobs)-1, poolBlocks*blockSize)
	}
	for _, job := range jobs[:len(jobs)-1] {
		for _, part := range job.parts {
			for l, lb := range part.layers {
				if lb.blocks != nil {
					t.Errorf("written-out chunk %d still references %d blocks of layer %d", job.seq, len(lb.blocks), l)
				}
			}
		}
	}

	// Grow the window to three blocks, so its list has room for a fourth.
	small := tocore.Event{Kind: tocore.EvBroadcast, A: strings.Repeat("y", 90)}
	for len(sn.win[layerTO].blocks) < 3 {
		sn.ObserveTO(small, nil)
	}
	if c := cap(sn.win[layerTO].blocks); c < 4 {
		t.Fatalf("window's block list has capacity %d, want room for a fourth block", c)
	}
	pooled := len(w.pool)
	if allocs := testing.AllocsPerRun(300, func() { sn.ObserveTO(small, nil) }); allocs != 0 {
		t.Errorf("a record with a warm pool allocates %v times", allocs)
	}
	if len(w.pool) != pooled-1 {
		t.Errorf("records into a fourth block took %d blocks from the pool, want 1", pooled-len(w.pool))
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
}

// frameChunk is the reference encoding of a job: the payload assembled in
// one buffer and framed in memory, as the recorder wrote chunks before it
// streamed them block by block.
func frameChunk(job *chunkJob) []byte {
	b := wire.AppendCount(wire.AppendBool(wire.AppendCount(nil, job.seq), job.quiescent), len(job.parts))
	for _, part := range job.parts {
		b = wire.AppendInt(b, int(part.p))
		for _, lb := range part.layers {
			flat := bytes.Join(lb.blocks, nil)
			b = append(wire.AppendCount(wire.AppendCount(wire.AppendCount(b, lb.start), lb.count), len(flat)), flat...)
		}
	}
	seg := binary.BigEndian.AppendUint64([]byte(segMagic), uint64(len(b)))
	return binary.BigEndian.AppendUint32(append(seg, b...), crc32.ChecksumIEEE(b))
}

// TestStreamSegmentsByteIdentical: a chunk streamed block by block is byte
// for byte the one-buffer reference encoding of its job, with a record that
// straddles two blocks and one larger than a block (a summary of 20k labels)
// among them; and testdata/v4, which the one-buffer recorder wrote, replays
// sealed and clean and is what the same run records today, file for file.
func TestStreamSegmentsByteIdentical(t *testing.T) {
	const rounds = 300 // the run testdata/v4 holds: 1800 steps, windows of 1600
	opts := StreamOptions{WindowSteps: 1600}
	sum := types.Summary{Ord: make([]types.Label, 20000)}
	for i := range sum.Ord {
		sum.Ord[i] = types.Label{ID: types.ViewID{Seq: 1}, Seqno: i + 1, Origin: types.ProcID(i % 3)}
	}
	huge := tocore.Event{Kind: tocore.EvRecv, M: tocore.SummaryMsg{X: sum}, From: 0}
	for _, summary := range []bool{false, true} {
		dir := t.TempDir()
		want := map[int][]byte{}
		_, sr := recordStreamed(t, dir, opts, rounds, func(r *StreamRecorder, round int) {
			if round == 0 {
				r.beforeWrite = func(job *chunkJob) { want[job.seq] = frameChunk(job) }
			}
			if summary && round == rounds/2 {
				r.byP[0].ObserveTO(huge, nil)
			}
		})
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		straddled, spanned := false, false
		for seq := 1; seq <= len(want); seq++ {
			path := filepath.Join(dir, chunkSeg(seq))
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want[seq]) {
				t.Errorf("summary=%v: chunk %d is not its reference encoding (%d bytes, want %d; %v)", summary, seq, len(got), len(want[seq]), err)
			}
			ch, err := readSegment(path, decodeChunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range ch.Parts {
				var lens [numLayers][]int
				for _, r := range part.DVS {
					b, _ := dvsCodec.append(nil, r.Ev, r.Fx)
					lens[layerDVS] = append(lens[layerDVS], len(b))
				}
				for _, r := range part.TO {
					b, _ := toCodec.append(nil, r.Ev, r.Fx)
					lens[layerTO] = append(lens[layerTO], len(b))
				}
				for _, ls := range lens {
					off := 0
					for _, n := range ls {
						spanned = spanned || n > blockSize
						straddled = straddled || n <= blockSize && off/blockSize != (off+n-1)/blockSize
						off += n
					}
				}
			}
		}
		if len(want) < 2 || !straddled || spanned != summary {
			t.Errorf("summary=%v: %d chunks, a record straddling blocks %v, one larger than a block %v", summary, len(want), straddled, spanned)
		}
		if summary {
			continue
		}
		for _, name := range []string{headerSeg, chunkSeg(1), chunkSeg(2), footerSeg} {
			got, err1 := os.ReadFile(filepath.Join(dir, name))
			old, err2 := os.ReadFile(filepath.Join("testdata", "v4", name))
			if err1 != nil || err2 != nil || !bytes.Equal(got, old) {
				t.Errorf("%s differs from testdata/v4's (%d and %d bytes; %v, %v)", name, len(got), len(old), err1, err2)
			}
		}
	}
	rep, err := ReplayStream(filepath.Join("testdata", "v4"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sealed || !rep.OK() || rep.DVSSteps+rep.TOSteps != 6*rounds {
		t.Errorf("testdata/v4 does not replay sealed and clean: %s", rep)
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
	tamperedSeq := tamperChunk(t, dir)

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
	sn.ObserveDVS(dvscore.Event{Kind: dvscore.EvClientRegister}, nil)
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
	other := NodeLog{NodeMeta: NodeMeta{P: 1, Initial: types.InitialView(types.RangeProcSet(2)), InP0: true}}
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

// unregisteredMsg is a types.Msg deliberately given no wire tag, so encoding
// a record that contains it fails.
type unregisteredMsg struct{}

func (unregisteredMsg) MsgKey() string { return "unregistered" }
func (unregisteredMsg) EqualMsg(o types.Msg) bool {
	_, ok := o.(unregisteredMsg)
	return ok
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

	steps, short := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 2, nil)
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
	if rep.DVSSteps != steps.dvs || rep.TOSteps != steps.to {
		t.Errorf("replayed dvs=%d/to=%d steps, recorded dvs=%d/to=%d", rep.DVSSteps, rep.TOSteps, steps.dvs, steps.to)
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

// v2Header is the header.seg a format-v2 recorder wrote for a one-node run:
// a gob payload in the same framing.
const v2Header = "DVSSEG1\n\x00\x00\x00\x00\x00\x00\x01;0\x7f\x03\x01\x01\fstreamHeader\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\x04\x00\x01\x05Nodes\x01\xff\x8a\x00\x00\x00!\xff\x89\x02\x01\x01\x12[]conform.NodeMeta\x01\xff\x8a\x00\x01\xff\x82\x00\x00[\xff\x81\x03\x01\x01\bNodeMeta\x01\xff\x82\x00\x01\a\x01\x01P\x01\x04\x00\x01\x05Group\x01\x04\x00\x01\aInitial\x01\xff\x84\x00\x01\x04InP0\x01\x02\x00\x01\bRegister\x01\x02\x00\x01\x02GC\x01\x02\x00\x01\x06Static\x01\x02\x00\x00\x00'\xff\x83\x03\x01\x01\x04View\x01\xff\x84\x00\x01\x02\x01\x02ID\x01\xff\x86\x00\x01\aMembers\x01\xff\x88\x00\x00\x00'\xff\x85\x03\x01\x01\x06ViewID\x01\xff\x86\x00\x01\x02\x01\x03Seq\x01\x06\x00\x01\x06Origin\x01\x04\x00\x00\x00\x13\xff\x87\x05\x01\x01\aProcSet\x01\xff\x88\x00\x00\x00\n\xff\x8b\x03\x01\x02\xff\x8c\x00\x00\x00\x1c\xff\x80\x01\x04\x01\x01\x03\x01\x00\x01\b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x01\x00\x00\xa8\xbdx\n"

// TestStreamReplayRejectsV1Directory: older formats are refused by version,
// with the instruction to re-record — a wire-coded header declaring another
// version and a real v2 header (gob) alike, for replay and for ReadStream.
func TestStreamReplayRejectsV1Directory(t *testing.T) {
	v1 := t.TempDir()
	if err := writeSegment(filepath.Join(v1, headerSeg), []byte{1, 0}); err != nil { // version 1, no nodes
		t.Fatal(err)
	}
	v2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(v2, headerSeg), []byte(v2Header), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"v1": v1, "v2": v2} {
		if _, err := ReplayStream(dir); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("%s directory: replay err=%v, want a version error that says to re-record", name, err)
		}
		if _, err := ReadStream(dir); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("%s directory: read err=%v, want a version error that says to re-record", name, err)
		}
	}
}

// TestStreamReplayReportsCorruptFooter: a footer that is there but damaged
// is not a missing footer. A flipped payload byte must read as a checksum
// mismatch and a torn file as truncated — on an ordinary stream and on the
// degenerate zero-node one — and neither may seal the trace.
func TestStreamReplayReportsCorruptFooter(t *testing.T) {
	run := t.TempDir()
	_, sr := recordStreamed(t, run, StreamOptions{WindowSteps: 4}, 4, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	sr, err := NewStreamRecorder(empty, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := ReplayStream(empty); err != nil || !rep.Sealed || rep.Checks != 0 {
		t.Fatalf("zero-node stream does not replay sealed and check-free: rep=%v err=%v", rep, err)
	}

	for name, dir := range map[string]string{"run": run, "zero-node": empty} {
		path := filepath.Join(dir, footerSeg)
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), intact...)
		flipped[len(segMagic)+8] ^= 0xff // first payload byte
		for damage, c := range map[string]struct {
			data []byte
			want string
		}{
			"flipped byte": {flipped, "checksum mismatch"},
			"torn":         {intact[:len(intact)-3], "truncated segment"},
		} {
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := ReplayStream(dir)
			if err != nil {
				t.Fatalf("%s, %s footer: %v", name, damage, err)
			}
			if rep.Sealed || !strings.Contains(rep.Truncated, c.want) || strings.Contains(rep.Truncated, "missing") {
				t.Errorf("%s, %s footer: sealed=%v truncated=%q, want unsealed with %q", name, damage, rep.Sealed, rep.Truncated, c.want)
			}
			if !rep.OK() {
				t.Errorf("%s, %s footer: the intact chunks replayed with findings: %s", name, damage, rep)
			}
		}
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
	sn.ObserveDVS(dvscore.Event{Kind: dvscore.EvClientRegister}, nil)
	sn.ObserveDVS(dvscore.Event{Kind: dvscore.EvClientSend, M: unregisteredMsg{}}, nil)
	first := sr.Err()
	if first == nil || !strings.Contains(first.Error(), "no wire tag") {
		t.Fatalf("Err() = %v after an unencodable message, want a no-wire-tag error", first)
	}
	sn.ObserveDVS(dvscore.Event{Kind: dvscore.EvClientRegister}, nil) // dropped, not recorded past the hole
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
	ev := dvscore.Event{Kind: dvscore.EvClientSend, M: types.ClientMsg("payload")}
	one, err := dvsCodec.append(nil, ev, nil)
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
		ch, err := readSegment(filepath.Join(dir, chunkSeg(seq)), decodeChunk)
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
	sr.beforeWrite = func(job *chunkJob) {
		stalled <- job.seq
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

// feedPastStalledWriter stalls r's writer (or, for a checker, worker) and
// feeds it 2*earlyCutSteps + window + earlyCutSteps records through observe,
// pinning the one back-pressure rule on the way: chunk 1 is cut early and
// stalls in the writer, chunk 2 is cut early into the free queue slot, and
// with the queue full the third window runs to the hard bound, whose cut is
// the only place the observer waits — once, counted in Stalls. It returns
// the number of records fed, with the writer released and all of them in.
func feedPastStalledWriter(t *testing.T, r *StreamRecorder, window int, observe func(i int)) int {
	t.Helper()
	stalled, release := make(chan int, 8), make(chan struct{})
	r.beforeWrite = func(job *chunkJob) {
		stalled <- job.seq
		<-release
	}
	blockedAt := 2*earlyCutSteps + window
	var fed atomic.Int64
	done, writerHasFirst := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < blockedAt+earlyCutSteps; i++ {
			if i == earlyCutSteps {
				// Chunk 1 is queued; whether chunk 2 is cut early depends on the
				// writer having taken it, so wait for that rather than race it.
				<-writerHasFirst
			}
			observe(i)
			fed.Add(1)
		}
	}()
	if seq := <-stalled; seq != 1 {
		t.Fatalf("writer started with chunk %d", seq)
	}
	close(writerHasFirst)
	waitFor(t, "the feeder to reach the blocked cut", func() bool { return int(fed.Load()) == blockedAt-1 })
	time.Sleep(50 * time.Millisecond)
	if n := int(fed.Load()); n != blockedAt-1 {
		t.Errorf("feeder got %d records in with the writer stalled, want it blocked at %d", n, blockedAt-1)
	}
	close(release)
	<-done
	// Read before Close, whose own cut of the tail may find the writer busy.
	if n := r.Stats().Stalls; n != 1 {
		t.Errorf("Stalls = %d, want the one cut at the hard bound", n)
	}
	return blockedAt + earlyCutSteps
}

// TestStreamChunkSizeFollowsWriter: from earlyCutSteps on, a window is cut as
// soon as the writer has room for it, and keeps growing while it has none —
// so a slow disk gets fewer, larger segments and no observer waits for it
// before the window is full.
func TestStreamChunkSizeFollowsWriter(t *testing.T) {
	const window = 3 * earlyCutSteps
	ev := dvscore.Event{Kind: dvscore.EvClientSend, M: types.ClientMsg("payload")}
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: window})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	feedPastStalledWriter(t, sr, window, func(int) { sn.ObserveDVS(ev, nil) })
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if peak := sr.PeakWindowSteps(); peak > window {
		t.Errorf("peak buffered steps %d exceeds window %d", peak, window)
	}
	for seq, want := range []int{earlyCutSteps, earlyCutSteps, window, earlyCutSteps} {
		ch, err := readSegment(filepath.Join(dir, chunkSeg(seq+1)), decodeChunk)
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

// TestObserversKeepNothingOfTheEffectsSlice: the shells hand every observer
// the one effects slice they reuse for the next macro-step, so the slice is
// dead the moment the observer returns. Each observer here gets a private
// copy that is wiped right after the call; a recorder or checker that kept
// the slice instead of encoding it would record, or re-check, the wiped
// values. The trace must decode to what an unmolested run records and the
// online checker must stay clean.
func TestObserversKeepNothingOfTheEffectsSlice(t *testing.T) {
	record := func(wipe bool) (NodeLog, OnlineStats) {
		dir := t.TempDir()
		p, initial := types.ProcID(0), types.InitialView(types.RangeProcSet(1))
		sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 16})
		if err != nil {
			t.Fatal(err)
		}
		sn, err := sr.Node(p, 0, initial, true, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		c, cn := onlineChecker(t, 8)
		driveScript(t, 20,
			func(ev dvscore.Event, fx []dvscore.Effect) {
				if wipe {
					fx = slices.Clone(fx)
					defer clear(fx)
				}
				sn.ObserveDVS(ev, fx)
				cn.ObserveDVS(ev, fx)
			},
			func(ev tocore.Event, fx []tocore.Effect) {
				if wipe {
					fx = slices.Clone(fx)
					defer clear(fx)
				}
				sn.ObserveTO(ev, fx)
				cn.ObserveTO(ev, fx)
			}, nil)
		if err := errors.Join(sr.Close(), c.Close()); err != nil {
			t.Fatal(err)
		}
		rep, err := ReplayStream(dir)
		if err != nil || rep.Err() != nil || !rep.Sealed {
			t.Fatalf("wipe=%v: replay: %v, %s", wipe, err, rep)
		}
		return readLog(t, dir), c.Stats()
	}
	plain, _ := record(false)
	wiped, st := record(true)
	if !reflect.DeepEqual(plain, wiped) {
		t.Error("wiping the effects slice after the observers returned changed the recorded trace")
	}
	if st.Checks == 0 || st.Steps != st.StepsChecked || st.Divergences != 0 || st.Violations != 0 || st.LastError != "" {
		t.Errorf("online checker over wiped slices: %+v", st)
	}
}
