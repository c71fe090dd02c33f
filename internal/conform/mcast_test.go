package conform

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol/mcastcore"
	"repro/internal/types"
)

// recordMcastRun drives procs multicast cores over ngroups groups through a
// burst of msgs two-group multicasts, the way the mcast shell drives them —
// every send effect becomes an entry of its group's total order, every
// member applies each group's entries in order — recording every macro-step
// into a multicast stream in dir. All submissions happen before anything is
// consumed, so the burst is as deep as it can be. Returns the number of
// steps observed and the closed recorder.
func recordMcastRun(t testing.TB, dir string, opts StreamOptions, procs, ngroups, msgs int) (int, *StreamRecorder) {
	t.Helper()
	sr, err := NewStreamRecorder(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	groups := types.RangeGroups(ngroups)
	nodes := make([]*mcastcore.Node, procs)
	obs := make([]*StreamNode, procs)
	for p := range nodes {
		nodes[p] = mcastcore.NewNode(types.ProcID(p), groups)
		if obs[p], err = sr.McastNode(types.ProcID(p), groups); err != nil {
			t.Fatal(err)
		}
	}
	orders := make([][]mcastcore.Event, ngroups) // each group's total order
	steps := 0
	step := func(p int, ev mcastcore.Event) {
		var out mcastcore.Outbox
		if err := mcastcore.Step(nodes[p], ev, &out); err != nil {
			t.Fatalf("mcast step: %v", err)
		}
		obs[p].ObserveMcast(ev, out.Effects)
		steps++
		for _, fx := range out.Effects {
			switch f := fx.(type) {
			case mcastcore.FxSendData:
				orders[f.To] = append(orders[f.To], mcastcore.EvData{Group: f.To, ID: f.ID, Origin: f.Origin, Dests: f.Dests, Payload: f.Payload})
			case mcastcore.FxSendProp:
				orders[f.To] = append(orders[f.To], mcastcore.EvProposal{Group: f.To, PGroup: f.PGroup, ID: f.ID, TS: f.TS})
			case mcastcore.FxDeliver:
				// handed to the application; nothing travels
			}
		}
	}
	for i := 0; i < msgs; i++ {
		dests := types.DedupGroups([]types.GroupID{groups[i%ngroups], groups[(i+1)%ngroups]})
		step(i%procs, mcastcore.EvSubmit{Dests: dests, Payload: "m" + strconv.Itoa(i)})
	}
	pos := make([][]int, procs)
	for p := range pos {
		pos[p] = make([]int, ngroups)
	}
	for progress := true; progress; {
		progress = false
		for p := range nodes {
			for g := range orders {
				if pos[p][g] < len(orders[g]) {
					step(p, orders[g][pos[p][g]])
					pos[p][g]++
					progress = true
				}
			}
		}
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("close multicast stream: %v", err)
	}
	return steps, sr
}

// TestMcastStreamReplay: the multicast layer rides the same stream as the
// other two — a burst spills over many chunks with the recorder's window
// bounded, the sealed directory replays every step clean with the multicast
// suite run at the end, and the decoded logs replay to the same verdict as
// one window.
func TestMcastStreamReplay(t *testing.T) {
	dir := t.TempDir()
	const window = 16
	steps, sr := recordMcastRun(t, dir, StreamOptions{WindowSteps: window}, 3, 3, 40)
	if peak := sr.PeakWindowSteps(); peak > window {
		t.Errorf("peak buffered steps %d exceeds window %d under a cross-group burst", peak, window)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil || !rep.Sealed {
		t.Fatalf("multicast stream replay: %v (%s)", err, rep)
	}
	if rep.McastSteps != steps || rep.DVSSteps != 0 || rep.TOSteps != 0 {
		t.Errorf("replayed %s, observed %d multicast steps", rep, steps)
	}
	if rep.Chunks < steps/window {
		t.Errorf("%d steps under a %d-step window spilled only %d chunks", steps, window, rep.Chunks)
	}
	// Close marks its final chunk quiescent, so the suite runs there and at
	// the sealed end.
	if rep.Checks != 8 || rep.QuiescentCuts != 1 {
		t.Errorf("the four multicast checks should have run at the closing cut and the sealed end: %s", rep)
	}

	logs, err := ReadStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, lg := range logs {
		for _, rec := range lg.Mcast {
			for _, fx := range rec.Fx {
				if _, ok := fx.(mcastcore.FxDeliver); ok {
					delivered++
				}
			}
		}
	}
	if want := 40 * 2 * 3; delivered != want {
		t.Errorf("decoded logs hold %d deliveries, want %d (40 multicasts x 2 groups x 3 members)", delivered, want)
	}
	one := Replay(logs)
	if err := one.Err(); err != nil || one.McastSteps != steps {
		t.Errorf("one-window replay of the decoded logs: %v (%s)", err, one)
	}
}

// TestMcastReplayDetectsTampering: a recorded delivery whose timestamp was
// rewritten no longer matches what the core re-derives, and a log whose
// events were reordered replays into histories the safety suite rejects.
func TestMcastReplayDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	recordMcastRun(t, dir, StreamOptions{}, 2, 2, 6)
	logs, err := ReadStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
tamper:
	for i, rec := range logs[1].Mcast {
		for j, fx := range rec.Fx {
			if d, ok := fx.(mcastcore.FxDeliver); ok {
				d.TS++
				fxs := append([]mcastcore.Effect(nil), rec.Fx...)
				fxs[j] = d
				logs[1].Mcast[i].Fx = fxs
				tampered = true
				break tamper
			}
		}
	}
	if !tampered {
		t.Fatal("no delivery to tamper with")
	}
	rep := Replay(logs)
	if len(rep.Divergences) == 0 || rep.Divergences[0].Layer != "mcast" || rep.Divergences[0].P != 1 {
		t.Fatalf("rewritten delivery timestamp not reported as a multicast divergence: %s", rep)
	}
}

// TestStreamRejectsMixedNodeKinds: a stream is all stacks or all multicast
// coordinators; a header holding both is malformed and nothing is replayed.
func TestStreamRejectsMixedNodeKinds(t *testing.T) {
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Node(0, 0, types.View{}, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	mn, err := sr.McastNode(1, types.RangeGroups(2))
	if err != nil {
		t.Fatal(err)
	}
	mn.ObserveMcast(mcastcore.EvProposal{Group: 0, PGroup: 1, ID: "m", TS: 1}, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Malformed) == 0 || !strings.Contains(rep.Malformed[0], "multicast coordinator") || rep.McastSteps != 0 {
		t.Errorf("mixed stream not rejected up front: %s %v", rep, rep.Malformed)
	}
}

// TestReplayRejectsRecordsInForeignLayer: records in a layer the node has
// no core for (a stack's part carrying multicast steps, as a damaged or
// hand-built trace could) are malformed input, not a nil core to step.
func TestReplayRejectsRecordsInForeignLayer(t *testing.T) {
	log := recordedRun(t)
	log.Mcast = []McastRecord{{Ev: mcastcore.EvProposal{ID: "m"}}}
	rep := Replay([]NodeLog{log})
	if len(rep.Malformed) == 0 || rep.McastSteps != 0 {
		t.Errorf("stack log with multicast records accepted: %s", rep)
	}
}

// TestReplayShardedWalksStreams: ReplaySharded replays group-NN/ and mcast/
// and nothing else, and an unsealed member fails the whole report by name.
func TestReplayShardedWalksStreams(t *testing.T) {
	root := t.TempDir()
	for g := 0; g < 2; g++ {
		_, sr := recordStreamed(t, GroupDir(root, types.GroupID(g)), StreamOptions{WindowSteps: 8}, 3, nil)
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	steps, _ := recordMcastRun(t, McastDir(root), StreamOptions{WindowSteps: 8}, 2, 2, 5)
	if err := os.Mkdir(filepath.Join(root, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySharded(root)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Groups) != 2 || rep.Mcast == nil || rep.Mcast.McastSteps != steps {
		t.Fatalf("sharded replay: %v\n%s", rep.Err(), rep)
	}
	// A crash: no footer, and the chunk Close marked quiescent never written.
	for _, seg := range []string{footerSeg, chunkSeg(rep.Mcast.Chunks)} {
		if err := os.Remove(filepath.Join(McastDir(root), seg)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = ReplaySharded(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Err().Error(), "mcast: trace not sealed") {
		t.Errorf("unsealed multicast stream not reported: %v", rep.Err())
	}
	if rep.Mcast.Checks != 4 || rep.Mcast.QuiescentCuts != 0 || rep.Mcast.McastSteps == 0 || !rep.Mcast.Report.OK() {
		t.Errorf("the unsealed multicast prefix should still get its safety suite: %s", rep.Mcast)
	}
}
