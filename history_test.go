package dvs

import (
	"fmt"
	"testing"
	"time"
)

// historyOf reads p's history gauges through its event loop.
func historyOf(p *Process) (base, retained, pinned, mismatch uint64) {
	s, _ := p.Stats()
	return s.HistoryBase, s.HistoryRetained, s.HistoryPinned, s.BaseMismatch
}

// pump broadcasts n messages round-robin from senders with at most window
// outstanding at the first of them, collecting every process's deliveries
// into delivered, and returns the most labels any sender held at a sample.
func pump(t *testing.T, cl *Cluster, senders []int, delivered [][]Delivery, tag string, n, window int) (peak uint64) {
	t.Helper()
	watch := cl.Process(senders[0])
	start := len(delivered[senders[0]])
	for i := 0; i < n; i++ {
		for deadline := time.Now().Add(20 * time.Second); len(delivered[senders[0]])-start <= i-window; {
			collectDeliveries(watch, &delivered[senders[0]])
			if time.Now().After(deadline) {
				t.Fatalf("%s: stalled with %d of %d delivered", tag, len(delivered[senders[0]])-start, i)
			}
		}
		cl.Process(senders[i%len(senders)]).Broadcast(fmt.Sprintf("%s%d", tag, i))
		if i%512 == 511 {
			for _, p := range senders {
				_, retained, _, _ := historyOf(cl.Process(p))
				peak = max(peak, retained)
				collectDeliveries(cl.Process(p), &delivered[p])
			}
		}
	}
	for _, p := range senders {
		waitDeliveries(t, cl.Process(p), &delivered[p], start+n, 30*time.Second)
	}
	return peak
}

// waitHistory polls until every listed process reports what ok wants.
func waitHistory(t *testing.T, cl *Cluster, procs []int, what string, ok func(base, retained, pinned uint64) bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		done := true
		for _, p := range procs {
			base, retained, pinned, _ := historyOf(cl.Process(p))
			if !ok(base, retained, pinned) {
				done = false
				if time.Now().After(deadline) {
					t.Fatalf("process %d never reached %s: base %d retained %d pinned %d", p, what, base, retained, pinned)
				}
			}
		}
		if done {
			return
		}
	}
}

// TestHistoryBounded: while the view is the universe a node holds what is
// in flight, not what has been sent. N and 4N messages through five
// processes leave the same few labels held, during the run and after it,
// and a base that counts the run.
func TestHistoryBounded(t *testing.T) {
	const window = 256
	all := []int{0, 1, 2, 3, 4}
	var peaks [2]uint64
	for k, n := range []int{3000, 12000} {
		cl, err := NewCluster(Config{Processes: 5, Seed: int64(31 + k), SuspectTimeout: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		peaks[k] = pump(t, cl, all, make([][]Delivery, 5), "m", n, window)
		waitHistory(t, cl, all, "everything stable", func(base, retained, _ uint64) bool {
			return base == uint64(n) && retained == 0
		})
		cl.Close()
	}
	// What is held at a sample is what is in flight: the window, the batches
	// behind it and the safe indications a tick may delay.
	if limit := uint64(8 * window); peaks[0] > limit || peaks[1] > limit {
		t.Errorf("labels held mid-run: %d over %d messages, %d over %d; want both ≤ %d", peaks[0], 3000, peaks[1], 12000, limit)
	}
	t.Logf("peak labels held: %d over 3000 messages, %d over 12000", peaks[0], peaks[1])
}

// TestHistoryPinnedWhileAway: a process that is away pins the frontier —
// nothing confirmed while it is gone may be dropped, since it will need it
// — and its return releases it. Partitioned off in the middle of a burst,
// the process leaves with a base below the others' (how far is a race, so
// the round repeats until it is), and the exchange at its return splices
// across the difference: same delivery stream everywhere, no duplicate, no
// mismatch, nothing found by the in-process checkers, and the recorded run
// replays divergence-free with its cross-node checks. (The suspicion
// window is wide so that the only view changes are the partition's: under
// the race detector a loaded loop otherwise misses heartbeats, and a view
// that lacks a process pins, as it should.)
func TestHistoryPinnedWhileAway(t *testing.T) {
	dir := t.TempDir()
	stream, err := NewTraceStream(dir, TraceStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(Config{Processes: 5, Seed: 41, Stream: stream, Online: true, SuspectTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	all, majority := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3}
	delivered := make([][]Delivery, 5)
	total, lagged := 0, false
	for round := 0; round < 10 && !lagged; round++ {
		for i := 0; i < 2000; i++ {
			cl.Process(i % 5).Broadcast(fmt.Sprintf("a%d.%d", round, i))
		}
		time.Sleep(time.Duration(3+2*round) * time.Millisecond)
		cl.Partition(majority, []int{4})
		pump(t, cl, majority, delivered, fmt.Sprintf("b%d.", round), 300, 64)
		waitHistory(t, cl, majority, "what the majority confirmed without process 4 pinned", func(_, retained, pinned uint64) bool {
			return retained >= 300 && pinned >= 300
		})
		away, _, _, _ := historyOf(cl.Process(4))
		here, _, _, _ := historyOf(cl.Process(0))
		lagged = away < here
		t.Logf("round %d: process 4 left with base %d, process 0 is at %d", round, away, here)

		cl.Heal()
		pump(t, cl, all, delivered, fmt.Sprintf("c%d.", round), 200, 64)
		total += 2500
		waitHistory(t, cl, all, "everything released", func(base, retained, pinned uint64) bool {
			return base == uint64(total) && retained == 0 && pinned == 0
		})
	}
	if !lagged {
		t.Error("process 4 never left with a base below the majority's: the exchange across different bases went untested")
	}
	for p := range delivered {
		waitDeliveries(t, cl.Process(p), &delivered[p], total, 20*time.Second)
		if _, _, _, mismatch := historyOf(cl.Process(p)); mismatch != 0 || len(delivered[p]) != total {
			t.Errorf("process %d: %d base mismatches, %d of %d messages delivered", p, mismatch, len(delivered[p]), total)
		}
	}
	assertConsistentAndFIFO(t, delivered)

	cl.Close()
	for p := range delivered {
		if cs := cl.Process(p).CheckStats(); cs.Divergences+cs.Violations > 0 || cs.StepsChecked != cs.Steps || cs.LastError != "" {
			t.Errorf("process %d's checker: %d of %d steps checked, %d divergences, %d violations, %q", p, cs.StepsChecked, cs.Steps, cs.Divergences, cs.Violations, cs.LastError)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayTraceStream(dir)
	if err != nil || !rep.OK() || !rep.Sealed {
		t.Fatalf("replay of a run whose nodes held different bases: %v (%s)", err, rep)
	}
}
