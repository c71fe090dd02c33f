package sim

import (
	"fmt"
	"strconv"
	"time"

	dvs "repro"
	"repro/internal/types"
)

// ShardedConfig configures the sharded-throughput experiment (E14): N
// independent groups over one shared transport, keyed traffic routed by
// consistent hash, and a fixed fraction of cross-group atomic multicasts.
type ShardedConfig struct {
	Processes int
	Groups    int
	Senders   int
	Duration  time.Duration
	// CrossFrac is the fraction of submissions sent as two-group atomic
	// multicasts instead of keyed single-group broadcasts (0 <= f < 1).
	CrossFrac float64
	Seed      int64
	// StreamDir, when non-empty, records the run into a sharded trace
	// directory (one stream per group plus the multicast stream); verify it
	// with dvs.ReplayShardedTrace after the run.
	StreamDir string
}

func (c *ShardedConfig) fill() {
	if c.Processes == 0 {
		c.Processes = 4
	}
	if c.Groups == 0 {
		c.Groups = 2
	}
	if c.Senders == 0 {
		c.Senders = c.Processes
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
}

// ShardedResult summarizes a sharded throughput run.
type ShardedResult struct {
	Processes int
	Groups    int
	CrossFrac float64
	Keyed     int // accepted keyed submissions
	Multis    int // submitted cross-group multicasts
	Delivered int // deliveries observed at process 0, summed over groups
	Elapsed   time.Duration
	// Consistent is true when every group's delivery streams agree, every
	// process's multicast histories agree per group, and the cross-group
	// partial order holds.
	Consistent bool
	Run        RunStats
}

// PerSecond is the aggregate delivery rate observed at one process.
func (r ShardedResult) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Delivered) / r.Elapsed.Seconds()
}

// String renders one result row.
func (r ShardedResult) String() string {
	return fmt.Sprintf("n=%-2d groups=%-2d cross=%.0f%% keyed=%-6d multi=%-4d delivered=%-6d rate=%.0f msg/s consistent=%v",
		r.Processes, r.Groups, 100*r.CrossFrac, r.Keyed, r.Multis, r.Delivered, r.PerSecond(), r.Consistent)
}

// Sharded pumps mixed keyed and cross-group traffic through a sharded
// cluster and measures the aggregate totally-ordered delivery rate. Keyed
// submissions route by consistent hash and execute on independent
// per-group stacks — aggregate throughput should scale with the group
// count (E14) — while the cross-group fraction exercises the atomic
// multicast, whose two-group messages pin the shared order.
func Sharded(cfg ShardedConfig) (ShardedResult, error) {
	cfg.fill()
	cl, err := dvs.NewShardedCluster(dvs.ShardedConfig{
		Processes: cfg.Processes, Groups: cfg.Groups, Seed: cfg.Seed,
		StreamDir: cfg.StreamDir,
	})
	if err != nil {
		return ShardedResult{}, err
	}
	defer cl.Close()
	groups := cl.Groups()
	settle(50 * time.Millisecond)

	res := ShardedResult{Processes: cfg.Processes, Groups: cfg.Groups, CrossFrac: cfg.CrossFrac}
	streams := make(map[types.GroupID][][]dvs.Delivery, len(groups))
	handles := make(map[types.GroupID][]*dvs.Process, len(groups))
	for _, g := range groups {
		streams[g] = make([][]dvs.Delivery, cfg.Processes)
		handles[g] = make([]*dvs.Process, cfg.Processes)
		for i := 0; i < cfg.Processes; i++ {
			h, ok := cl.Process(i).Group(g)
			if !ok {
				return res, fmt.Errorf("process %d missing group %s", i, g)
			}
			handles[g][i] = h
		}
	}
	drainAll := func() int {
		for _, g := range groups {
			for i := 0; i < cfg.Processes; i++ {
				Drain(handles[g][i], &streams[g][i])
			}
		}
		total := 0
		for _, g := range groups {
			total += len(streams[g][0])
		}
		return total
	}

	// The pump interleaves keyed submissions with cross-group multicasts at
	// the configured fraction, windowed on outstanding traffic so a slow
	// group applies backpressure instead of flooding its inbox.
	expectMulti := make(map[types.GroupID]int, len(groups))
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	const window = 256
	i, crossCredit := 0, 0.0
	for time.Now().Before(deadline) {
		at0 := drainAll()
		if res.Keyed+res.Multis-at0 >= window {
			time.Sleep(time.Millisecond)
			continue
		}
		sender := cl.Process(i % cfg.Senders)
		crossCredit += cfg.CrossFrac
		if crossCredit >= 1 {
			crossCredit--
			dests := types.DedupGroups([]types.GroupID{groups[i%len(groups)], groups[(i+1)%len(groups)]})
			if err := sender.SubmitMulti(dests, "x"+strconv.Itoa(i)); err != nil {
				return res, fmt.Errorf("multicast submit: %w", err)
			}
			res.Multis++
			for _, g := range dests {
				expectMulti[g]++
			}
		} else if sender.Submit("key-"+strconv.Itoa(i), "m"+strconv.Itoa(i)) {
			res.Keyed++
		}
		i++
	}
	// Allow in-flight traffic to finish: process 0's streams must reach the
	// accepted totals (every keyed submit plus each group's multicasts).
	want := res.Keyed + expectMulti[groups[0]]
	for _, g := range groups[1:] {
		want += expectMulti[g]
	}
	flushDeadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(flushDeadline) {
		if drainAll() >= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Elapsed = time.Since(start)
	res.Delivered = drainAll()

	// Safety: per-group total order, multicast agreement, and the
	// cross-group partial order over process 0's histories versus all.
	res.Consistent = true
	for _, g := range groups {
		if err := CheckDeliverySequences(streams[g]); err != nil {
			res.Consistent = false
		}
	}
	ref := make(map[types.GroupID][]dvs.McastDelivery, len(groups))
	for _, g := range groups {
		ref[g] = cl.Process(0).McastDelivered(g)
		for i := 1; i < cfg.Processes && res.Consistent; i++ {
			if !mcastPrefix(ref[g], cl.Process(i).McastDelivered(g)) {
				res.Consistent = false
			}
		}
	}
	if !crossOrderOK(ref, groups) {
		res.Consistent = false
	}

	res.Run = RunStats{Net: cl.NetStats()}
	var samples uint64
	var total time.Duration
	for _, g := range groups {
		for i := 0; i < cfg.Processes; i++ {
			vs := handles[g][i].VSStats()
			res.Run.Views += vs.ViewsInstalled
			res.Run.Retransmits += vs.Retransmits
			res.Run.Periodic += vs.Periodic
			samples += vs.LatencySamples
			total += vs.LatencyTotal
		}
	}
	if samples > 0 {
		res.Run.AvgLatency = total / time.Duration(samples)
	}
	return res, nil
}

// mcastPrefix reports whether one multicast history is a prefix of the
// other (live harvests race delivery, so equality is too strong).
func mcastPrefix(a, b []dvs.McastDelivery) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// crossOrderOK checks the cross-group partial order over one process's
// histories: any two groups sharing two multicasts order them identically.
func crossOrderOK(hist map[types.GroupID][]dvs.McastDelivery, groups []types.GroupID) bool {
	for i, g := range groups {
		for _, h := range groups[i+1:] {
			pos := make(map[string]int, len(hist[g]))
			for k, d := range hist[g] {
				pos[d.ID] = k
			}
			last := -1
			for _, d := range hist[h] {
				if p, ok := pos[d.ID]; ok {
					if p < last {
						return false
					}
					last = p
				}
			}
		}
	}
	return true
}
