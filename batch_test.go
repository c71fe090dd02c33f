package dvs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

// TestBurstDeliveryAccounting floods a cluster with more broadcasts than the
// application-facing delivery channel can hold without draining it, then
// checks that no message was lost silently: every FxDeliver the core emitted
// is either still in the channel or counted in DroppedUp. It also pins that
// the burst actually engaged shell batching — the whole point of pipelined
// load is that payloads outnumber the frames that carried them.
func TestBurstDeliveryAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("burst soak")
	}
	// No process fails in this test, so any suspicion is a false positive
	// caused by scheduler starvation under the burst (the race detector
	// slows the whole stack by an order of magnitude). A generous window
	// keeps the failure detector out of an experiment that measures
	// delivery accounting, not failover.
	cl, err := NewCluster(Config{Processes: 3, Seed: 21, SuspectTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// More than the delivery channel capacity (1<<14), so the undrained
	// consumer overflows it.
	const total = 18000
	for i := 0; i < total; i++ {
		if !cl.Process(0).Broadcast(fmt.Sprintf("b%d", i)) {
			t.Fatalf("broadcast %d failed", i)
		}
	}

	// Wait until process 1 has delivered (or dropped) everything.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ts, _ := cl.Process(1).Stats()
		if ts.Delivered >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivery stalled: %+v", ts)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts, _ := cl.Process(1).Stats()
	drained := 0
	for {
		select {
		case <-cl.Process(1).Deliveries():
			drained++
			continue
		default:
		}
		break
	}
	if uint64(drained)+ts.DroppedUp != ts.Delivered {
		t.Errorf("lost deliveries: drained=%d + DroppedUp=%d != Delivered=%d",
			drained, ts.DroppedUp, ts.Delivered)
	}
	if ts.DroppedUp == 0 {
		t.Errorf("burst of %d did not overflow the channel; counters %+v", total, ts)
	}

	// tob batching must have engaged under pipelined load. (dvsg-level
	// coalescing only triggers on multi-send macro-steps — state exchanges —
	// so no floor is asserted for it here.)
	sender, sdvs := cl.Process(0).Stats()
	if sender.PayloadsOut <= sender.BatchesOut {
		t.Errorf("tob batching idle: %d payloads in %d frames", sender.PayloadsOut, sender.BatchesOut)
	}
	t.Logf("sender tob: %d payloads / %d frames; dvsg: %d payloads / %d frames; receiver dropped %d of %d",
		sender.PayloadsOut, sender.BatchesOut, sdvs.WirePayloads, sdvs.WireFrames, ts.DroppedUp, ts.Delivered)
}

// TestBatchedConformanceSoak runs a recording cluster under pipelined load
// with a partition and heal, and replays the harvested logs through the
// protocol cores. Batches flow through the DVS core as opaque client
// messages and are recorded as such, so this pins two things at once: the
// conformance machinery round-trips types.Batch (wire codec, MsgKey
// rendering), and a batched execution is divergence-free — the cores cannot
// tell it from an unbatched one.
func TestBatchedConformanceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance soak")
	}
	cl, harvest := recordedCluster(t, Config{Processes: 3, Seed: 22})
	time.Sleep(50 * time.Millisecond)

	msg := 0
	pump := func(from, k int) {
		for j := 0; j < k; j++ {
			cl.Process(from).Broadcast(fmt.Sprintf("s%d", msg))
			msg++
		}
	}
	pump(0, 200)
	pump(1, 200)
	time.Sleep(150 * time.Millisecond)

	cl.Partition([]int{0, 1}, []int{2})
	time.Sleep(150 * time.Millisecond)
	pump(0, 100)
	cl.Heal()
	time.Sleep(400 * time.Millisecond)
	pump(2, 50)
	time.Sleep(300 * time.Millisecond)

	_, logs := harvest()

	// Count batches in the recorded DVS event streams directly.
	batched := 0
	for _, lg := range logs {
		for _, rec := range lg.DVS {
			if _, ok := rec.Ev.M.(types.Batch); ok {
				batched++
			}
		}
	}
	if batched == 0 {
		t.Error("no types.Batch appeared in the recorded DVS logs; load was not batched")
	}

	rep := ReplayTrace(logs)
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("batched trace conformance: %v (%s)", err, rep)
	}
	t.Logf("conformance: %s (%d batched DVS events)", rep, batched)
}
