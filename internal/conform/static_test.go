package conform

import (
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// recordedStaticRun drives a singleton static-primary node (dvscore.StaticNode
// behind dvscore.Step, exactly as dvsg drives it in ModeStatic) plus its TO
// core through a small scripted run into a stream, and returns the decoded
// log.
func recordedStaticRun(t *testing.T) NodeLog {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sr.Node(p, 0, initial, true, true, false, true)
	if err != nil {
		t.Fatal(err)
	}

	sn := dvscore.NewStaticNode(p, initial, true)
	tn := tocore.NewNode(p, initial, true, false)

	stepDVS := func(ev dvscore.Event) []dvscore.Effect {
		var out dvscore.Outbox
		dvscore.Step(sn, ev, false, &out)
		rec.ObserveDVS(ev, out.Effects)
		return out.Effects
	}
	stepTO := func(ev tocore.Event) []tocore.Effect {
		var out tocore.Outbox
		if err := tocore.Step(tn, ev, true, &out); err != nil {
			t.Fatalf("to step: %v", err)
		}
		rec.ObserveTO(ev, out.Effects)
		return out.Effects
	}

	for _, fx := range stepTO(tocore.Event{Kind: tocore.EvBroadcast, A: "a1"}) {
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
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	log := readLog(t, dir)
	if !log.Static {
		t.Fatal("recorder did not mark the log static")
	}
	return log
}

func TestReplayStaticCleanRun(t *testing.T) {
	log := recordedStaticRun(t)
	rep := Replay([]NodeLog{log})
	if err := rep.Err(); err != nil {
		t.Fatalf("replay of faithful static log: %v", err)
	}
	if rep.DVSSteps != len(log.DVS) || rep.TOSteps != len(log.TO) {
		t.Errorf("step counts: %s", rep)
	}
	if rep.Checks == 0 {
		t.Error("no invariant checks evaluated on the static cut")
	}
}

// TestReplayStaticDetectsTampering rewrites one recorded DVS effect; the
// static replay must re-derive the original and flag the divergence.
func TestReplayStaticDetectsTampering(t *testing.T) {
	log := recordedStaticRun(t)
	tampered := false
	for i, r := range log.DVS {
		if len(r.Fx) > 0 {
			fx := append([]dvscore.Effect(nil), r.Fx...)
			fx[len(fx)-1] = dvscore.Effect{Kind: dvscore.FxNewPrimary, View: log.Initial}
			log.DVS[i].Fx = fx
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no DVS record with effects to tamper with")
	}
	rep := Replay([]NodeLog{log})
	if len(rep.Divergences) == 0 {
		t.Fatalf("tampered static log replayed clean: %s", rep)
	}
}

// TestReplayRejectsMixedModes pins the malformed-set rule: one run cannot
// contain both static and dynamic nodes, so a mixed log set must be
// rejected up front rather than replayed against the wrong automata.
func TestReplayRejectsMixedModes(t *testing.T) {
	initial := types.InitialView(types.RangeProcSet(2))
	logs := []NodeLog{
		{NodeMeta: NodeMeta{P: 0, Initial: initial, InP0: true, Static: true}},
		{NodeMeta: NodeMeta{P: 1, Initial: initial, InP0: true, Static: false}},
	}
	rep := Replay(logs)
	if len(rep.Malformed) == 0 {
		t.Fatalf("mixed static/dynamic log set accepted: %s", rep)
	}
}
