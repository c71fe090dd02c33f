package conform

import (
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// recordedRun drives the two cores of a singleton node through one scripted
// broadcast cycle via the same Step/observer path the runtime shells use,
// records it the only way there is — a stream in a temp directory — and
// returns the decoded log.
func recordedRun(t *testing.T) NodeLog {
	t.Helper()
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{}, 1, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	return readLog(t, dir)
}

// readLog decodes the single-node trace in dir.
func readLog(t *testing.T, dir string) NodeLog {
	t.Helper()
	logs, err := ReadStream(dir)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if len(logs) != 1 || len(logs[0].DVS) == 0 || len(logs[0].TO) == 0 {
		t.Fatalf("scripted run decoded to %d logs, want one with steps in both layers", len(logs))
	}
	return logs[0]
}

func TestReplayCleanRun(t *testing.T) {
	log := recordedRun(t)
	rep := Replay([]NodeLog{log})
	if err := rep.Err(); err != nil {
		t.Fatalf("replay of faithful log: %v", err)
	}
	if rep.DVSSteps != len(log.DVS) || rep.TOSteps != len(log.TO) {
		t.Errorf("step counts: %s", rep)
	}
	if rep.Checks == 0 {
		t.Error("no invariant checks evaluated")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	log := recordedRun(t)

	// Drop the effects of the first TO step that had any: the replayed core
	// re-derives them, so the checker must flag the mismatch.
	tampered := Replay([]NodeLog{tamperTO(log)})
	if tampered.OK() {
		t.Fatal("replay accepted a log with dropped TO effects")
	}
	if len(tampered.Divergences) == 0 {
		t.Fatal("expected a divergence")
	}
	d := tampered.Divergences[0]
	if d.Layer != "to" || d.Want == d.Got {
		t.Errorf("unexpected divergence: %s", d)
	}

	// Same for a DVS step.
	if rep := Replay([]NodeLog{tamperDVS(log)}); rep.OK() {
		t.Fatal("replay accepted a log with dropped DVS effects")
	}
}

func tamperTO(log NodeLog) NodeLog {
	out := log
	out.TO = append([]TORecord(nil), log.TO...)
	for i, r := range out.TO {
		if len(r.Fx) > 0 {
			out.TO[i] = TORecord{Ev: r.Ev, Fx: nil}
			break
		}
	}
	return out
}

func tamperDVS(log NodeLog) NodeLog {
	out := log
	out.DVS = append([]DVSRecord(nil), log.DVS...)
	for i, r := range out.DVS {
		if len(r.Fx) > 0 {
			out.DVS[i] = DVSRecord{Ev: r.Ev, Fx: nil}
			break
		}
	}
	return out
}

// TestCodecRoundTrip: a run recorded over several chunks decodes to exactly
// the steps that were observed, in order, and the decoded log replays clean.
func TestCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var wantDVS, wantTO []string
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(t, 5,
		func(ev dvscore.Event, fx []dvscore.Effect) {
			wantDVS = append(wantDVS, render(ev)+" => "+render(fx...))
			sn.ObserveDVS(ev, fx)
		},
		func(ev tocore.Event, fx []tocore.Effect) {
			wantTO = append(wantTO, render(ev)+" => "+render(fx...))
			sn.ObserveTO(ev, fx)
		}, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}

	log := readLog(t, dir)
	if len(log.DVS) != len(wantDVS) || len(log.TO) != len(wantTO) {
		t.Fatalf("decoded dvs=%d/to=%d records, observed dvs=%d/to=%d", len(log.DVS), len(log.TO), len(wantDVS), len(wantTO))
	}
	for i, rec := range log.DVS {
		if got := render(rec.Ev) + " => " + render(rec.Fx...); got != wantDVS[i] {
			t.Fatalf("dvs record %d decoded as %q, observed %q", i, got, wantDVS[i])
		}
	}
	for i, rec := range log.TO {
		if got := render(rec.Ev) + " => " + render(rec.Fx...); got != wantTO[i] {
			t.Fatalf("to record %d decoded as %q, observed %q", i, got, wantTO[i])
		}
	}
	if !log.InP0 || !log.Register || !log.GC || log.Static || log.McastGroups != nil {
		t.Errorf("construction parameters did not survive the header: %+v", log.NodeMeta)
	}
	if err := Replay([]NodeLog{log}).Err(); err != nil {
		t.Fatalf("replay of decoded log: %v", err)
	}
}

func TestReplayEmpty(t *testing.T) {
	rep := Replay(nil)
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("empty replay not OK: %s", rep)
	}
}
