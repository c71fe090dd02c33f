package main

// metricDef names one reported metric. The lists below are the single
// source of metric names in the program; BENCHMARK.json repeats them and
// the smoke test checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the median it may worsen by
	// speed says how the metric scales with machine speed: +1 for a time or
	// cost (a faster machine lowers it), -1 for a rate, 0 for a count.
	speed int
}

var e2eMetrics = []metricDef{
	{"throughput_msgs_s", "1/s", "higher", 0.15, -1},
	{"lat_p50_ms", "ms", "lower", 0.20, 1},
	{"lat_p99_ms", "ms", "lower", 0.25, 1},
	{"cpu_us_per_msg", "us", "lower", 0.15, 1},
	{"alloc_bytes_per_msg", "B", "lower", 0.05, 0},
	{"live_heap_mb", "MB", "lower", 0.05, 0},
	{"setup_s", "s", "lower", 0.25, 1},
}

var layerMetrics = []metricDef{
	{name: "tob.submit_us_per_msg", unit: "us", better: "lower"},
	{name: "tob.up_self_us_per_msg", unit: "us", better: "lower"},
	{name: "tob.payloads_per_batch", unit: "ratio", better: "higher"},
	{name: "tob.dropped_up", unit: "count", better: "lower"},
	{name: "tob.flush_discards", unit: "count", better: "lower"},
	{name: "dvsg.up_self_us_per_msg", unit: "us", better: "lower"},
	{name: "dvsg.payloads_per_frame", unit: "ratio", better: "higher"},
	{name: "vsg.rest_us_per_msg", unit: "us", better: "lower"},
	{name: "vsg.frames_per_msg", unit: "ratio", better: "lower"},
	{name: "vsg.retransmits_per_kmsg", unit: "ratio", better: "lower"},
	{name: "vsg.heartbeats_per_s", unit: "1/s", better: "lower"},
	{name: "vsg.order_latency_us", unit: "us", better: "lower"},
	{name: "vsg.views_installed", unit: "count", better: "lower"},
	{name: "net.send_us_per_msg", unit: "us", better: "lower"},
	{name: "net.sends_per_msg", unit: "ratio", better: "lower"},
	{name: "net.tcp.frames_per_flush", unit: "ratio", better: "higher"},
	{name: "net.tcp.redials", unit: "count", better: "lower"},
	{name: "net.dropped", unit: "count", better: "lower"},
	{name: "net.recv_dropped", unit: "count", better: "lower"},
	{name: "net.groupmux.send_self_us_per_msg", unit: "us", better: "lower"},
	{name: "net.groupmux.dropped", unit: "count", better: "lower"},
	{name: "shard.ring_lookup_ns", unit: "ns", better: "lower"},
	{name: "mcast.hook_self_us_per_delivery", unit: "us", better: "lower"},
	{name: "mcast.submit_us_per_multi", unit: "us", better: "lower"},
	{name: "mcast.control_per_multi", unit: "ratio", better: "lower"},
	{name: "mcast.dropped_sends", unit: "count", better: "lower"},
	{name: "mcast.rejected", unit: "count", better: "lower"},
	{name: "conform.observe_us_per_msg", unit: "us", better: "lower"},
	{name: "conform.steps_per_msg", unit: "ratio", better: "lower"},
	{name: "conform.trace_bytes_per_msg", unit: "B", better: "lower"},
	{name: "conform.replay_s", unit: "s", better: "lower"},
	{name: "runtime.allocs_per_msg", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "harness.submit_wait_us_per_msg", unit: "us", better: "lower"},
	{name: "harness.sender_blocked_share", unit: "ratio", better: "higher"},
	{name: "harness.calib_mops", unit: "1/us", better: "higher"},
	{name: "harness.speed_factor", unit: "ratio", better: "higher"},
	{name: "harness.reruns", unit: "count", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
}
