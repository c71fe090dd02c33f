package dvs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/conform"
	"repro/internal/types"
)

// groupHandle fetches the per-group Process view or fails the test.
func groupHandle(t *testing.T, p *ShardedProcess, g GroupID) *Process {
	t.Helper()
	h, ok := p.Group(g)
	if !ok {
		t.Fatalf("process %d has no stack for group %s", p.ID(), g)
	}
	return h
}

// assertMcastAgreement checks that every process's multicast delivery
// history for each group is identical (the runs below wait for
// convergence first, so prefixes are not enough), and returns one
// consensus order per group.
func assertMcastAgreement(t *testing.T, procs []*ShardedProcess, groups []GroupID) map[GroupID][]McastDelivery {
	t.Helper()
	consensus := make(map[GroupID][]McastDelivery, len(groups))
	for _, g := range groups {
		ref := procs[0].McastDelivered(g)
		for _, p := range procs[1:] {
			got := p.McastDelivered(g)
			if len(got) != len(ref) {
				t.Fatalf("group %s: process %d delivered %d multicasts, process %d delivered %d",
					g, procs[0].ID(), len(ref), p.ID(), len(got))
			}
			for k := range ref {
				if got[k] != ref[k] {
					t.Fatalf("group %s: processes %d and %d disagree at %d: %+v vs %+v",
						g, procs[0].ID(), p.ID(), k, ref[k], got[k])
				}
			}
		}
		consensus[g] = ref
	}
	return consensus
}

// assertCrossGroupOrder pins the paper-level sharding invariant directly on
// the harvested histories: any two groups that both deliver two multicasts
// deliver them in the same relative order.
func assertCrossGroupOrder(t *testing.T, consensus map[GroupID][]McastDelivery, groups []GroupID) {
	t.Helper()
	for i, g := range groups {
		for _, h := range groups[i+1:] {
			posG := make(map[string]int, len(consensus[g]))
			for k, d := range consensus[g] {
				posG[d.ID] = k
			}
			var shared []McastDelivery
			for _, d := range consensus[h] {
				if _, ok := posG[d.ID]; ok {
					shared = append(shared, d)
				}
			}
			for a := 0; a < len(shared); a++ {
				for b := a + 1; b < len(shared); b++ {
					if posG[shared[a].ID] > posG[shared[b].ID] {
						t.Fatalf("cross-group order violated: group %s delivers %s before %s, group %s reverses them",
							h, shared[a].ID, shared[b].ID, g)
					}
				}
			}
		}
	}
}

// TestShardedKeyedRouting covers the single-group fast path of a sharded
// cluster: keyed submits route deterministically by consistent hash, land
// only in their routed group, each group keeps one total order, and both
// the per-group protocol traces and the (empty) multicast trace replay
// clean. One group is the degenerate case, not a different runtime: it
// too goes through the mux and runs a coordinator.
func TestShardedKeyedRouting(t *testing.T) {
	for _, ngroups := range []int{1, 3} {
		t.Run(fmt.Sprintf("groups=%d", ngroups), func(t *testing.T) { testShardedKeyedRouting(t, ngroups) })
	}
}

func testShardedKeyedRouting(t *testing.T, ngroups int) {
	const n, msgs = 4, 36
	traceDir := t.TempDir()
	cl, err := NewShardedCluster(ShardedConfig{Processes: n, Groups: ngroups, Seed: 11, StreamDir: traceDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	groups := cl.Groups()

	// Route each key up front; every process must agree with the cluster
	// ring, or a submit and its expectation could diverge.
	expect := make(map[GroupID][]string)
	for i := 0; i < msgs; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := cl.Ring().Group(key)
		if got := cl.Process(i % n).SubmitKey(key); got != g {
			t.Fatalf("process %d routes %q to %s, cluster ring says %s", i%n, key, got, g)
		}
		payload := fmt.Sprintf("k%d", i)
		if !cl.Process(i%n).Submit(key, payload) {
			t.Fatalf("submit %q failed", payload)
		}
		expect[g] = append(expect[g], payload)
	}
	for _, g := range groups {
		if len(expect[g]) == 0 {
			t.Fatalf("group %s drew no keys out of %d — ring balance is broken", g, msgs)
		}
	}

	// Every process's every group delivers exactly that group's share.
	delivered := make(map[GroupID][][]Delivery)
	for _, g := range groups {
		delivered[g] = make([][]Delivery, n)
		for i := 0; i < n; i++ {
			waitDeliveries(t, groupHandle(t, cl.Process(i), g), &delivered[g][i], len(expect[g]), 20*time.Second)
		}
		assertPrefixConsistent(t, delivered[g])
		want := make(map[string]bool, len(expect[g]))
		for _, p := range expect[g] {
			want[p] = true
		}
		for i := 0; i < n; i++ {
			for _, d := range delivered[g][i] {
				if !want[d.Payload] {
					t.Fatalf("group %s delivered %q, which was routed elsewhere", g, d.Payload)
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		if d := cl.Process(i).MuxDropped(); d != 0 {
			t.Errorf("process %d: group mux dropped %d frames", i, d)
		}
		if ms := cl.Process(i).McastStats(); ms.Submitted != 0 || ms.Delivered != 0 {
			t.Errorf("process %d: keyed traffic reached the multicast coordinator: %+v", i, ms)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("closing sharded cluster: %v", err)
	}
	for _, g := range groups {
		rep := ReplayTrace(readTrace(t, conform.GroupDir(traceDir, g)))
		if err := rep.Err(); err != nil {
			t.Fatalf("group %s trace conformance: %v (%s)", g, err, rep)
		}
	}
	mrep := ReplayTrace(readTrace(t, conform.McastDir(traceDir)))
	if err := mrep.Err(); err != nil || mrep.Nodes != n || mrep.McastSteps != 0 {
		t.Fatalf("(empty) multicast trace conformance: %v (%s)", err, mrep)
	}
}

// TestShardedMulticastOrdering drives the cross-group atomic multicast on a
// quiet network: every addressed group delivers every multicast, all
// processes agree per group, shared multicasts keep the same relative order
// across groups, and deliveries are spliced into the ordinary per-group
// application streams alongside keyed traffic.
func TestShardedMulticastOrdering(t *testing.T) {
	const n = 3
	traceDir := t.TempDir()
	cl, err := NewShardedCluster(ShardedConfig{Processes: n, Groups: 2, Seed: 12, StreamDir: traceDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	groups := cl.Groups()
	g0, g1 := groups[0], groups[1]

	// Interleave: both-group multicasts from rotating origins, single-group
	// multicasts, and one keyed broadcast to prove streams merge.
	perGroup := map[GroupID]int{}
	for i := 0; i < 6; i++ {
		if err := cl.Process(i%n).SubmitMulti([]GroupID{g0, g1}, fmt.Sprintf("both%d", i)); err != nil {
			t.Fatal(err)
		}
		perGroup[g0]++
		perGroup[g1]++
	}
	if err := cl.Process(0).SubmitMulti([]GroupID{g0}, "solo0"); err != nil {
		t.Fatal(err)
	}
	perGroup[g0]++
	if err := cl.Process(1).SubmitMulti([]GroupID{g1}, "solo1"); err != nil {
		t.Fatal(err)
	}
	perGroup[g1]++
	key := "merge-key"
	kg := cl.Ring().Group(key)
	if !cl.Process(2).Submit(key, "keyed") {
		t.Fatal("keyed submit failed")
	}

	// Convergence: every process's core history reaches the full count for
	// both groups.
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for i := 0; i < n; i++ {
			for _, g := range groups {
				if len(cl.Process(i).McastDelivered(g)) < perGroup[g] {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				for _, g := range groups {
					t.Logf("p%d %s: %d/%d", i, g, len(cl.Process(i).McastDelivered(g)), perGroup[g])
				}
			}
			t.Fatal("multicast deliveries did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}

	consensus := assertMcastAgreement(t, cl.Processes(), groups)
	assertCrossGroupOrder(t, consensus, groups)

	// The application stream of each group carries the multicasts plus the
	// keyed broadcast, in one per-group total order.
	for _, g := range groups {
		want := perGroup[g]
		if g == kg {
			want++
		}
		streams := make([][]Delivery, n)
		for i := 0; i < n; i++ {
			waitDeliveries(t, groupHandle(t, cl.Process(i), g), &streams[i], want, 20*time.Second)
		}
		assertPrefixConsistent(t, streams)
	}

	if err := cl.Close(); err != nil {
		t.Fatalf("closing sharded cluster: %v", err)
	}
	rep := ReplayTrace(readTrace(t, conform.McastDir(traceDir)))
	if rep.Err() != nil || rep.McastSteps == 0 {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %s", d)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("multicast trace conformance: %v (%s)", rep.Err(), rep)
	}
}

// TestShardedChaosSoak is the multi-group nemesis run the sharding work is
// gated on: randomized partitions and heals against a 4-process x 3-group
// cluster under mixed traffic where at least 10% of submissions are
// cross-group multicasts. At the end every safety net fires at once —
// per-group one-total-order over the live streams, multicast agreement and
// the cross-group partial order pinned directly on the harvested
// histories, per-group trace replay, multicast trace replay, and a full
// sharded stream-directory replay that must come back sealed and
// divergence-free.
func TestShardedChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n, ngroups = 4, 3
	traceDir := t.TempDir()
	cl, err := NewShardedCluster(ShardedConfig{
		Processes: n, Groups: ngroups, Seed: 13, StreamDir: traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	groups := cl.Groups()

	rng := rand.New(rand.NewSource(13))
	keyed := make(map[GroupID]map[string]bool)
	for _, g := range groups {
		keyed[g] = make(map[string]bool)
	}
	multi := make(map[GroupID]int)
	streams := make(map[GroupID][][]Delivery)
	for _, g := range groups {
		streams[g] = make([][]Delivery, n)
	}
	harvest := func() {
		for i := 0; i < n; i++ {
			for _, g := range groups {
				collectDeliveries(groupHandle(t, cl.Process(i), g), &streams[g][i])
			}
		}
	}

	msgs, multis := 0, 0
	for round := 0; round < 12; round++ {
		switch rng.Intn(4) {
		case 0:
			cl.Heal()
		case 1:
			k := 1 + rng.Intn(n/2)
			perm := rng.Perm(n)
			cl.Partition(toInts(perm[k:]), toInts(perm[:k]))
		case 2:
			cl.Partition(toInts(rng.Perm(n)[:n-1]))
		default:
			// traffic-only round
		}
		// Mixed traffic: ~6 keyed submits and at least one cross-group
		// multicast per round keeps the cross-group fraction >= 10%.
		for s := 0; s < 6; s++ {
			sender := cl.Process(rng.Intn(n))
			key := fmt.Sprintf("key-%d", rng.Intn(64))
			payload := fmt.Sprintf("k%d", msgs)
			msgs++
			if sender.Submit(key, payload) {
				keyed[sender.SubmitKey(key)][payload] = true
			}
		}
		dests := []GroupID{groups[rng.Intn(ngroups)], groups[rng.Intn(ngroups)]}
		if err := cl.Process(rng.Intn(n)).SubmitMulti(dests, fmt.Sprintf("x%d", multis)); err != nil {
			t.Fatalf("multicast submit: %v", err)
		}
		multis++
		for _, g := range types.DedupGroups(dests) {
			multi[g]++
		}
		time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
		harvest()
	}
	if frac := float64(multis) / float64(multis+msgs); frac < 0.10 {
		t.Fatalf("cross-group fraction %.2f below the 10%% floor", frac)
	}

	// Stabilize and wait until every process's every group stream holds its
	// full expected content: each keyed submit that was accepted plus every
	// multicast addressed to the group.
	cl.Heal()
	deadline := time.Now().Add(60 * time.Second)
	for {
		harvest()
		done := true
		for i := 0; i < n; i++ {
			for _, g := range groups {
				if len(streams[g][i]) < len(keyed[g])+multi[g] {
					done = false
				}
				if len(cl.Process(i).McastDelivered(g)) < multi[g] {
					done = false
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				for _, g := range groups {
					t.Logf("p%d %s: stream %d/%d mcast %d/%d", i, g,
						len(streams[g][i]), len(keyed[g])+multi[g],
						len(cl.Process(i).McastDelivered(g)), multi[g])
				}
			}
			t.Fatal("sharded soak did not converge after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	harvest()

	// Per-group safety over the live streams: one total order, and keyed
	// payloads only ever in their routed group.
	for _, g := range groups {
		assertPrefixConsistent(t, streams[g])
		for i := 0; i < n; i++ {
			for _, d := range streams[g][i] {
				if d.Payload[0] == 'k' && !keyed[g][d.Payload] {
					t.Fatalf("group %s delivered keyed %q routed to another group", g, d.Payload)
				}
			}
		}
	}

	// The tentpole invariant, pinned on the harvested multicast histories.
	consensus := assertMcastAgreement(t, cl.Processes(), groups)
	assertCrossGroupOrder(t, consensus, groups)

	if err := cl.Close(); err != nil {
		t.Fatalf("closing sharded cluster: %v", err)
	}

	// Conformance, three ways: each group's decoded logs as one window, the
	// multicast coordinators' likewise, and the sealed sharded directory
	// chunk by chunk.
	for _, g := range groups {
		rep := ReplayTrace(readTrace(t, conform.GroupDir(traceDir, g)))
		if err := rep.Err(); err != nil {
			for _, d := range rep.Divergences {
				t.Errorf("group %s divergence: %s", g, d)
			}
			for _, v := range rep.Violations {
				t.Errorf("group %s violation: %s", g, v)
			}
			t.Fatalf("group %s trace conformance under nemesis: %v (%s)", g, err, rep)
		}
	}
	mrep := ReplayTrace(readTrace(t, conform.McastDir(traceDir)))
	if err := mrep.Err(); err != nil || mrep.McastSteps == 0 {
		for _, d := range mrep.Divergences {
			t.Errorf("multicast divergence: %s", d)
		}
		for _, v := range mrep.Violations {
			t.Errorf("multicast violation: %s", v)
		}
		t.Fatalf("multicast trace conformance under nemesis: %v (%s)", err, mrep)
	}
	srep, err := ReplayShardedTrace(traceDir)
	if err != nil {
		t.Fatalf("sharded stream replay: %v", err)
	}
	if !srep.OK() {
		t.Fatalf("sharded stream replay not clean: %v (%s)", srep.Err(), srep)
	}
	if srep.Mcast == nil || srep.Mcast.McastSteps != mrep.McastSteps {
		t.Errorf("sharded replay covered %v multicast steps, the decoded logs hold %d", srep.Mcast, mrep.McastSteps)
	}
	t.Logf("sharded soak: %d keyed, %d multicasts (%.0f%% cross-group), %s",
		msgs, multis, 100*float64(multis)/float64(multis+msgs), srep)
}

// TestShardedKilledRunReplaysSealedPrefix: the multicast log is a stream
// like the per-group ones, so a sharded run that dies without Close leaves
// a sealed prefix of every layer on disk. The directory of a still-running
// cluster is what a killed one leaves behind: it must replay clean up to
// the last complete chunk of each stream, multicast steps included, and say
// that none of them was sealed.
func TestShardedKilledRunReplaysSealedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("pumps enough traffic to spill chunks at the default window")
	}
	const n, ngroups = 3, 2
	traceDir := t.TempDir()
	cl, err := NewShardedCluster(ShardedConfig{Processes: n, Groups: ngroups, Seed: 14, StreamDir: traceDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	groups := cl.Groups()

	// Every multicast is a handful of coordinator steps at each process, so
	// a few hundred of them cut the multicast stream's first chunk; the
	// group streams, which record far more steps per message, get there
	// sooner. Pump in bounded rounds until every stream has a chunk on disk.
	spilled := func() bool {
		dirs := []string{conform.McastDir(traceDir)}
		for _, g := range groups {
			dirs = append(dirs, conform.GroupDir(traceDir, g))
		}
		for _, dir := range dirs {
			if _, err := os.Stat(filepath.Join(dir, "chunk-00000001.seg")); err != nil {
				return false
			}
		}
		return true
	}
	streams := make([][][]Delivery, ngroups)
	for gi := range streams {
		streams[gi] = make([][]Delivery, n)
	}
	sent := 0
	for deadline := time.Now().Add(60 * time.Second); !spilled(); {
		if time.Now().After(deadline) {
			t.Fatalf("no chunk of every stream on disk after %d multicasts", sent)
		}
		for i := 0; i < 100; i++ {
			if err := cl.Process(sent%n).SubmitMulti(groups, fmt.Sprintf("x%d", sent)); err != nil {
				t.Fatalf("multicast submit: %v", err)
			}
			sent++
		}
		for gi, g := range groups {
			for i := 0; i < n; i++ {
				waitDeliveries(t, groupHandle(t, cl.Process(i), g), &streams[gi][i], sent, 30*time.Second)
			}
		}
	}

	rep, err := ReplayShardedTrace(traceDir)
	if err != nil {
		t.Fatalf("replay of an unclosed sharded trace must not hard-fail: %v", err)
	}
	if rep.OK() {
		t.Fatalf("unclosed sharded trace reported sealed and clean:\n%s", rep)
	}
	if len(rep.Groups) != ngroups || rep.Mcast == nil {
		t.Fatalf("replay covered %d group streams and multicast=%v, want %d and a multicast stream", len(rep.Groups), rep.Mcast != nil, ngroups)
	}
	for _, g := range groups {
		sr := rep.Groups[g]
		if sr.Sealed || sr.Truncated == "" || sr.Chunks == 0 || sr.TOSteps == 0 || !sr.Report.OK() {
			t.Errorf("group %s prefix: want unsealed, truncated, non-empty and clean, got %s", g, sr)
		}
	}
	mc := rep.Mcast
	if mc.Sealed || mc.Truncated == "" || mc.Chunks == 0 || mc.McastSteps == 0 || mc.Checks == 0 || !mc.Report.OK() {
		t.Errorf("multicast prefix: want unsealed, truncated, non-empty, checked and clean, got %s", mc)
	}

	// The same directory, once the run does close, seals.
	if err := cl.Close(); err != nil {
		t.Fatalf("closing sharded cluster: %v", err)
	}
	if rep, err = ReplayShardedTrace(traceDir); err != nil || !rep.OK() {
		t.Fatalf("closed sharded trace: %v / %v\n%s", err, rep.Err(), rep)
	}
}
