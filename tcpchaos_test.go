package dvs

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/types"
)

// collectNodeDeliveries drains a TCP node's delivery channel into out.
func collectNodeDeliveries(n *Node, out *[]Delivery) {
	for {
		select {
		case d := <-n.Deliveries():
			*out = append(*out, d)
		default:
			return
		}
	}
}

// TestChaosTCPFaultSoak is the acceptance soak for the hardened transport:
// three standalone TCP nodes, each wrapped in a FaultTransport sharing one
// plan, driven through injected partitions, probabilistic loss, latency,
// message duplication, and reordering while broadcasting. After healing,
// the group must converge to the full primary view with an identical total
// order — the sequence-number defenses of the data plane must absorb the
// duplicated and overtaken frames without divergence; the per-peer
// accounting invariant Sent == Delivered + Dropped must hold on both the
// fault layer and the raw TCP transport of every node; and closing
// everything must return the goroutine count to baseline.
func TestChaosTCPFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	baseline := runtime.NumGoroutine()
	const n = 3
	// All three nodes spill their macro-steps into one chunked on-disk
	// trace; the small window forces many rolling cuts under chaos. The
	// in-process checker runs on every node at the same time.
	traceDir := t.TempDir()
	const traceWindow = 256
	stream, err := NewTraceStream(traceDir, TraceStreamOptions{WindowSteps: traceWindow})
	if err != nil {
		t.Fatal(err)
	}
	plan := netfab.NewFaultPlan(99)
	plan.SetLatency(time.Millisecond, 2*time.Millisecond)
	plan.SetDuplicate(0.05)
	plan.SetReorder(0.1, 5*time.Millisecond)
	faults := make([]*netfab.FaultTransport, n)

	addrs := loopbackAddrs(t, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = addrs[j]
			}
		}
		i := i
		node, err := StartNode(NodeConfig{
			ID:           i,
			Processes:    n,
			Listen:       addrs[i],
			Peers:        peers,
			TickInterval: 5 * time.Millisecond,
			Stream:       stream,
			Online:       true,
			WrapTransport: func(tr netfab.Transport) netfab.Transport {
				faults[i] = netfab.NewFaultTransport(tr, plan)
				return faults[i]
			},
		})
		if err != nil {
			for _, nd := range nodes[:i] {
				nd.Close()
			}
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
	}
	closeAll := func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			closeAll()
		}
	}()

	delivered := make([][]Delivery, n)
	harvest := func() {
		for i := 0; i < n; i++ {
			collectNodeDeliveries(nodes[i], &delivered[i])
		}
	}
	broadcast := make(map[string]bool)
	msg := 0
	send := func(from, k int) {
		for j := 0; j < k; j++ {
			payload := fmt.Sprintf("c%d", msg)
			msg++
			if nodes[from].Broadcast(payload) {
				broadcast[payload] = true
			}
		}
	}

	time.Sleep(150 * time.Millisecond)
	send(0, 2)
	send(1, 2)

	// Phase 1: partition {0,1} | {2} — the majority side keeps a primary.
	// The phase boundary is a rolling (non-quiescent) cut: messages may be
	// in flight, so the replayer runs only the per-node checks here.
	stream.Cut(false)
	plan.Partition([]types.ProcID{0, 1}, []types.ProcID{2})
	time.Sleep(200 * time.Millisecond)
	send(0, 2)
	send(2, 1) // buffered in 2's minority, delivered after heal
	harvest()

	// Phase 2: heal under probabilistic loss and latency.
	stream.Cut(false)
	plan.SetLoss(0.15)
	plan.Heal()
	time.Sleep(300 * time.Millisecond)
	send(1, 2)
	harvest()

	// Phase 3: clean network; converge.
	plan.SetLoss(0)
	plan.SetLatency(0, 0)
	plan.SetDuplicate(0)
	plan.SetReorder(0, 0)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for i := 0; i < n; i++ {
			v, has := nodes[i].CurrentPrimary()
			if !has || v.Members.Len() != n || !nodes[i].Established() {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group never converged to the full primary view")
		}
		time.Sleep(10 * time.Millisecond)
	}
	send(2, 2)

	// Every broadcast must eventually deliver everywhere, in one order.
	for {
		harvest()
		done := true
		for i := 0; i < n; i++ {
			if len(delivered[i]) < len(broadcast) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries incomplete: want %d, have %d/%d/%d",
				len(broadcast), len(delivered[0]), len(delivered[1]), len(delivered[2]))
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertPrefixConsistent(t, delivered)
	for i := 0; i < n; i++ {
		if len(delivered[i]) != len(broadcast) {
			t.Errorf("node %d delivered %d of %d", i, len(delivered[i]), len(broadcast))
		}
	}

	// Per-peer accounting invariant on both layers of every node.
	for i := 0; i < n; i++ {
		if err := faults[i].Stats().CheckInvariant(); err != nil {
			t.Errorf("node %d fault layer: %v", i, err)
		}
		st := nodes[i].NetStats()
		if err := st.CheckInvariant(); err != nil {
			t.Errorf("node %d tcp layer: %v", i, err)
		}
		if st.Sent == 0 || len(st.Peers) == 0 {
			t.Errorf("node %d recorded no per-peer traffic: %+v", i, st)
		}
		ns := nodes[i].StatsSnapshot()
		if ns.VS.ViewsInstalled == 0 || ns.TOB.Delivered == 0 {
			t.Errorf("node %d layer counters empty: %+v", i, ns)
		}
		if ns.TOB.PayloadsOut != 0 && ns.TOB.BatchesOut == 0 {
			t.Errorf("node %d sent payloads with no frames: %+v", i, ns.TOB)
		}
		if st.WriterFrames < st.WriterFlushes {
			t.Errorf("node %d writer frames %d < flushes %d", i, st.WriterFrames, st.WriterFlushes)
		}
		t.Logf("node %d: tob %d payloads / %d frames, net %d frames / %d flushes",
			i, ns.TOB.PayloadsOut, ns.TOB.BatchesOut, st.WriterFrames, st.WriterFlushes)
	}
	fs := faults[0].Stats()
	if fs.Dropped == 0 {
		t.Errorf("fault layer injected no drops despite partition+loss: %+v", fs)
	}
	var dups uint64
	for i := 0; i < n; i++ {
		dups += faults[i].Stats().Duplicated
	}
	if dups == 0 {
		t.Errorf("fault layer injected no duplicates despite 5%% duplication over %d sends", fs.Sent)
	}

	// Zero leaked goroutines after Close.
	closed = true
	closeAll()

	// Trace conformance: with every node stopped and the stream sealed, the
	// per-node logs form a consistent cut. Replaying them through the
	// protocol cores must re-derive every recorded effect, and the
	// reconstructed final states must satisfy the paper's invariants — the
	// refinement check of the unverified transport and view-synchronous
	// layers under fault injection.
	if err := stream.Close(); err != nil {
		t.Fatalf("sealing trace stream: %v", err)
	}
	logs := readTrace(t, traceDir)
	if len(logs) != n {
		t.Fatalf("trace holds %d node logs, want %d", len(logs), n)
	}
	rep := ReplayTrace(logs)
	if err := rep.Err(); err != nil {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("trace conformance under chaos: %v (%s)", err, rep)
	}
	t.Logf("conformance: %s", rep)

	// Streamed conformance: the same directory replayed chunk by chunk must
	// reach the same verdict as the one-window replay of its decoded logs —
	// and the recorder's buffered window must have stayed bounded while the
	// soak ran.
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
		t.Fatalf("streamed trace conformance under chaos: %v (%s)", serr, srep)
	}
	if !srep.Sealed {
		t.Errorf("chaos stream not sealed: %s", srep)
	}
	if srep.OK() != rep.OK() {
		t.Errorf("streamed verdict %v disagrees with one-window verdict %v", srep.OK(), rep.OK())
	}
	if srep.DVSSteps != rep.DVSSteps || srep.TOSteps != rep.TOSteps {
		t.Errorf("streamed replay covered dvs=%d/to=%d steps, one-window dvs=%d/to=%d",
			srep.DVSSteps, srep.TOSteps, rep.DVSSteps, rep.TOSteps)
	}
	if srep.Chunks < 2 {
		t.Errorf("chaos soak produced only %d chunks with window %d", srep.Chunks, traceWindow)
	}
	// The recorder may buffer the window plus the records racing the cut;
	// allow one extra record per node over the threshold.
	if peak := stream.PeakWindowSteps(); peak > traceWindow+n {
		t.Errorf("recorder buffered %d steps, window %d", peak, traceWindow)
	}
	t.Logf("streamed conformance: %s (peak window %d)", srep, stream.PeakWindowSteps())

	// The in-process checkers re-executed every step of every node — the
	// tail when the node closed — and found nothing.
	for i := 0; i < n; i++ {
		cs := nodes[i].CheckStats()
		if cs.Steps == 0 || cs.Steps != cs.StepsChecked || cs.Checks == 0 {
			t.Errorf("node %d online checker: %d steps observed, %d re-stepped, %d invariant checks", i, cs.Steps, cs.StepsChecked, cs.Checks)
		}
		if cs.Divergences != 0 || cs.Violations != 0 || cs.LastError != "" {
			t.Errorf("node %d online checker flagged the run: %+v", i, cs)
		}
		t.Logf("node %d online checker: %d checks / %d steps, max %.2fms, %d stalls",
			i, cs.Checks, cs.Steps, float64(cs.MaxCheckNanos)/1e6, cs.Stalls)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines fails the test unless the goroutine count comes back to
// (within two of) baseline: whatever the test started has to end with Close.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		g := runtime.NumGoroutine()
		if g <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				g, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
