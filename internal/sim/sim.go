// Package sim drives the runtime stack through the experiment scenarios of
// EXPERIMENTS.md: membership churn (availability of dynamic versus static
// primaries), partition cascades (primary intersection chains), recovery
// after heal, steady-state throughput, and the registration ablation.
package sim

import (
	"fmt"
	"time"

	dvs "repro"
	netfab "repro/internal/net"
	"repro/internal/types"
)

// RunStats is the end-of-run transport and view-synchronous summary
// attached to every scenario result: cumulative fabric counters plus
// per-layer activity aggregated over all processes.
type RunStats struct {
	Net         netfab.Stats
	Views       uint64        // vsg views installed, summed over processes
	Retransmits uint64        // Data/Ordered frames resent after a stall, summed
	Periodic    uint64        // tick-driven gossip, ack and safe-point frames, summed
	AvgLatency  time.Duration // mean submit-to-deliver latency of own submissions
}

// String renders the summary as one compact report line.
func (r RunStats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d views=%d retransmits=%d periodic=%d avg_latency=%v",
		r.Net.Sent, r.Net.Delivered, r.Net.Dropped, r.Views, r.Retransmits, r.Periodic, r.AvgLatency)
}

// captureRunStats snapshots the cluster's counters; scenarios call it just
// before returning (while the cluster is still open).
func captureRunStats(cl *dvs.Cluster) RunStats {
	rs := RunStats{Net: cl.NetStats()}
	var samples uint64
	var total time.Duration
	for _, p := range cl.Processes() {
		vs := p.VSStats()
		rs.Views += vs.ViewsInstalled
		rs.Retransmits += vs.Retransmits
		rs.Periodic += vs.Periodic
		samples += vs.LatencySamples
		total += vs.LatencyTotal
	}
	if samples > 0 {
		rs.AvgLatency = total / time.Duration(samples)
	}
	return rs
}

// CheckDeliverySequences verifies the TO service's end-to-end guarantee on
// observed delivery sequences: pairwise prefix consistency.
func CheckDeliverySequences(seqs [][]dvs.Delivery) error {
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			a, b := seqs[i], seqs[j]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					return fmt.Errorf("sequences %d and %d diverge at position %d: %v vs %v", i, j, k, a[k], b[k])
				}
			}
		}
	}
	return nil
}

// CheckPrimaryChain verifies the dynamic-primary intersection property on
// the set of primary views observed anywhere during a run: consecutive
// primaries in identifier order intersect (consecutive attempted views have
// no totally registered view strictly between them, so Invariant 4.1
// requires nonempty intersection).
func CheckPrimaryChain(views []dvs.View) error {
	byID := make(map[dvs.ViewID]dvs.View)
	for _, v := range views {
		if w, ok := byID[v.ID]; ok && w.Members != v.Members {
			return fmt.Errorf("two primaries share id %s: %s vs %s", v.ID, w.Members, v.Members)
		}
		byID[v.ID] = v
	}
	uniq := make([]dvs.View, 0, len(byID))
	for _, v := range byID {
		uniq = append(uniq, v)
	}
	types.SortViews(uniq)
	for i := 1; i < len(uniq); i++ {
		if !uniq[i-1].Members.Intersects(uniq[i].Members) {
			return fmt.Errorf("consecutive primaries %s and %s are disjoint", uniq[i-1], uniq[i])
		}
	}
	return nil
}

// Drain empties a process's delivery channel into out.
func Drain(p *dvs.Process, out *[]dvs.Delivery) {
	for {
		select {
		case d := <-p.Deliveries():
			*out = append(*out, d)
		default:
			return
		}
	}
}

// DrainViews empties a process's view-event channel into out.
func DrainViews(p *dvs.Process, out *[]dvs.ViewEvent) {
	for {
		select {
		case e := <-p.Views():
			*out = append(*out, e)
		default:
			return
		}
	}
}

// settle waits briefly for the stack to quiesce; scenarios use it between
// reconfigurations.
func settle(d time.Duration) { time.Sleep(d) }
