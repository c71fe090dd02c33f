package dvs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/types"
)

// TestSoakRandomizedNemesis is the end-to-end torture test: randomized
// partitions, heals, crashes and traffic against a 6-process cluster, with
// the full set of safety checks at the end:
//
//   - delivery sequences pairwise prefix-consistent (one total order),
//   - no duplicates, per-origin FIFO,
//   - every delivered message was broadcast,
//   - all primary views observed anywhere form an intersection chain.
func TestSoakRandomizedNemesis(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n = 6
	// The nemesis run records its trace with a tight chunk window: at the end
	// the chunk-by-chunk replay must agree with the one-window replay of the
	// decoded logs, and the window proves recorder memory stays O(window)
	// over the soak.
	traceDir := t.TempDir()
	const traceWindow = 512
	stream, err := NewTraceStream(traceDir, TraceStreamOptions{WindowSteps: traceWindow})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(Config{Processes: n, Seed: 77, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(77))
	broadcast := make(map[string]ProcID)
	delivered := make([][]Delivery, n)
	var viewEvents []ViewEvent
	crashed := make(map[int]bool)
	harvest := func() {
		for i := 0; i < n; i++ {
			collectDeliveries(cl.Process(i), &delivered[i])
			for {
				select {
				case e := <-cl.Process(i).Views():
					viewEvents = append(viewEvents, e)
					continue
				default:
				}
				break
			}
		}
	}

	msg := 0
	for round := 0; round < 25; round++ {
		switch rng.Intn(6) {
		case 0, 1:
			cl.Heal()
		case 2:
			k := 1 + rng.Intn(2)
			perm := rng.Perm(n)
			cl.Partition(toInts(perm[k:]), toInts(perm[:k]))
		case 3:
			cl.Partition(toInts(rng.Perm(n)[:4]))
		case 4:
			// Crash at most two processes over the whole run.
			if len(crashed) < 2 {
				victim := rng.Intn(n)
				if !crashed[victim] {
					crashed[victim] = true
					cl.Crash(victim)
				}
			}
		default:
			// traffic-only round
		}
		for s := 0; s < 4; s++ {
			sender := rng.Intn(n)
			if crashed[sender] {
				continue
			}
			payload := fmt.Sprintf("s%d", msg)
			msg++
			if cl.Process(sender).Broadcast(payload) {
				broadcast[payload] = ProcID(sender)
			}
		}
		time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
		harvest()
		// Rolling cut at every nemesis round: in-flight traffic means the
		// boundary is not quiescent, so the replayer applies the per-node
		// invariant projections here and saves the cross-node suite for the
		// sealed end.
		stream.Cut(false)
	}
	cl.Heal()
	// Liveness after stabilization: every broadcast (including those of
	// crashed senders that made it into someone's content) is delivered at
	// every live process.
	var live int
	for live = 0; crashed[live]; live++ {
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		harvest()
		if len(delivered[live]) >= len(broadcast) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live process %d delivered %d of %d broadcasts", live, len(delivered[live]), len(broadcast))
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	harvest()

	// One total order across all live processes.
	assertPrefixConsistent(t, delivered)
	for i := 0; i < n; i++ {
		seen := make(map[string]bool)
		lastSeqno := make(map[ProcID]int)
		for _, d := range delivered[i] {
			if seen[d.Payload] {
				t.Fatalf("process %d: duplicate %q", i, d.Payload)
			}
			seen[d.Payload] = true
			origin, ok := broadcast[d.Payload]
			if !ok {
				t.Fatalf("process %d delivered never-broadcast %q", i, d.Payload)
			}
			if origin != d.Origin {
				t.Fatalf("process %d: %q attributed to %d, broadcast by %d", i, d.Payload, d.Origin, origin)
			}
			// Per-origin FIFO: payloads carry a global sequence, and each
			// origin's subsequence must be increasing.
			var k int
			fmt.Sscanf(d.Payload, "s%d", &k)
			if prev, ok := lastSeqno[d.Origin]; ok && k < prev {
				t.Fatalf("process %d: origin %d out of order (%d after %d)", i, d.Origin, k, prev)
			}
			lastSeqno[d.Origin] = k
		}
	}

	// Intersection chain over every primary observed anywhere.
	byID := make(map[ViewID]View)
	for _, e := range viewEvents {
		byID[e.View.ID] = e.View
	}
	views := make([]View, 0, len(byID))
	for _, v := range byID {
		views = append(views, v)
	}
	types.SortViews(views)
	for i := 1; i < len(views); i++ {
		if !views[i-1].Members.Intersects(views[i].Members) {
			t.Fatalf("primaries %s and %s disjoint", views[i-1], views[i])
		}
	}
	t.Logf("soak: %d broadcasts, %d delivered at live p%d, %d primaries, %d crashed",
		len(broadcast), len(delivered[live]), live, len(views), len(crashed))

	// Trace conformance over the whole nemesis run: once every process has
	// stopped, the recorded macro-steps must replay exactly through the
	// protocol cores and the reconstructed cut must satisfy the paper's
	// invariants. Crashed processes simply contribute shorter logs — their
	// cut point is the crash, which is consistent because every message they
	// received was recorded as sent in some peer's (longer) log.
	cl.Close()
	if err := stream.Close(); err != nil {
		t.Fatalf("sealing trace stream: %v", err)
	}
	rep := ReplayTrace(readTrace(t, traceDir))
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("trace conformance under nemesis: %v (%s)", err, rep)
	}
	t.Logf("conformance: %s", rep)

	// Streamed conformance over the same run: replay the sealed directory
	// incrementally. Verdict and coverage must match the one-window replay,
	// and the recorder's high-water mark must respect the window — the
	// O(window) memory claim, witnessed under a full nemesis soak.
	srep, err := ReplayTraceStream(traceDir)
	if err != nil {
		t.Fatalf("streamed replay: %v", err)
	}
	if serr := srep.Err(); serr != nil {
		for _, d := range srep.Divergences {
			t.Errorf("streamed divergence: %s", d)
		}
		for _, v := range srep.Violations {
			t.Errorf("streamed violation: %s", v)
		}
		t.Fatalf("streamed trace conformance under nemesis: %v (%s)", serr, srep)
	}
	if !srep.Sealed {
		t.Errorf("nemesis stream not sealed: %s", srep)
	}
	if srep.OK() != rep.OK() {
		t.Errorf("streamed verdict %v disagrees with one-window verdict %v", srep.OK(), rep.OK())
	}
	if srep.DVSSteps != rep.DVSSteps || srep.TOSteps != rep.TOSteps {
		t.Errorf("streamed replay covered dvs=%d/to=%d steps, one-window dvs=%d/to=%d",
			srep.DVSSteps, srep.TOSteps, rep.DVSSteps, rep.TOSteps)
	}
	if peak := stream.PeakWindowSteps(); peak > traceWindow {
		t.Errorf("recorder buffered %d steps over a %d-step window", peak, traceWindow)
	}
	t.Logf("streamed conformance: %s (peak window %d)", srep, stream.PeakWindowSteps())
}

func toInts(ps []int) []int { return append([]int(nil), ps...) }
