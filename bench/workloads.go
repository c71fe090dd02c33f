package main

// sysKind selects the runtime a workload drives.
type sysKind int

const (
	sysCluster sysKind = iota // dvs.NewCluster on the in-memory fabric
	sysTCP                    // dvs.StartNode processes on loopback TCP
	sysSharded                // dvs.NewShardedCluster
)

// workload is one closed-loop load. Counts are fixed, not durations: the
// cores retain every message, so heap and history at the end of a run only
// compare between runs that sent the same number of messages.
type workload struct {
	name   string
	kind   sysKind
	procs  int
	groups int
	// window is the number of deliveries the sender may have outstanding at
	// their origin process before it blocks.
	window int
	// warm and measured are submission counts of the untraced repetitions;
	// traced is the measured count of the traced repetition and of the
	// untraced one it is compared with.
	warm, measured, traced int
	record                 bool // spill a conform stream (Config.Stream)
	crossPct               int  // share of submissions that are two-group multicasts
	why                    string
}

// saturating reports whether the sender is meant to wait for the system:
// the generator guard applies to these workloads.
func (w *workload) saturating() bool { return w.window > 1 }

var workloads = []*workload{
	{
		name: "fabric_sat", kind: sysCluster, procs: 5, groups: 1, window: 256,
		warm: 20000, measured: 200000, traced: 50000,
		why: "CPU-bound protocol path: tob coalescing, dvsg filter and vsg sequencing do the work, transport is a channel send",
	},
	{
		name: "tcp_sat", kind: sysTCP, procs: 5, groups: 1, window: 256,
		warm: 15000, measured: 150000, traced: 50000,
		why: "same stack and load as fabric_sat over loopback TCP, so the difference is the gob codec, gather-writer and readers",
	},
	{
		name: "tcp_pingpong", kind: sysTCP, procs: 5, groups: 1, window: 1,
		warm: 2000, measured: 20000, traced: 20000,
		why: "one message in flight: nothing batches or contends, latency is the sum of the blocking steps, batching gains vanish",
	},
	{
		name: "sharded_cross", kind: sysSharded, procs: 4, groups: 4, window: 256,
		warm: 15000, measured: 150000, traced: 50000, crossPct: 10,
		why: "4 groups with 10% two-group multicasts: loads GroupMux, shard.Ring and mcast, which are idle in every other workload",
	},
	{
		name: "fabric_recorded", kind: sysCluster, procs: 5, groups: 1, window: 256,
		warm: 6000, measured: 60000, traced: 20000, record: true,
		why: "fabric_sat with the conform stream recorder on the event loop: per-step clone, gob and fsync dominate",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
