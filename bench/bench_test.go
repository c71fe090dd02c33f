package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the program: same
// workloads, same metric names, units, directions and bounds, in order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bm.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bm.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if got := bm.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	if len(bm.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bm.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := bm.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
}

// TestSmoke runs every workload in-process at 2k messages, untraced and
// traced, and checks that each delivers everything with no failed
// operation and no view change, and reports every metric it declares.
func TestSmoke(t *testing.T) {
	steady := func() float64 { return nominalSpeed }
	o := options{seed: 3, reps: 1, traced: true, rep: runRep, calibrate: steady, speedProbe: steady, warm: 200, measured: 2000}
	results, err := runWorkloads(workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, r := range results {
		if !r.correct || r.failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", r.w.name, r.correct, r.failed)
		}
		if len(r.reps) != traceRounds || len(r.traced) != traceRounds {
			t.Errorf("%s: %d untraced and %d traced repetitions, want %d each", r.w.name, len(r.reps), len(r.traced), traceRounds)
		}
		for _, rep := range append(append([]*repResult(nil), r.reps...), r.traced...) {
			if want := 2000 * (100 + r.w.crossPct) / 100; rep.Deliveries < want*9/10 || rep.Deliveries > want*11/10 {
				t.Errorf("%s: %d measured deliveries at process 0, want about %d", r.w.name, rep.Deliveries, want)
			}
			if rep.LatSamples != 2000 {
				t.Errorf("%s: %d latency samples, want 2000", r.w.name, rep.LatSamples)
			}
			if got, want := rep.Layer["vsg.views_installed"], float64(r.w.procs*r.w.groups); got != want {
				t.Errorf("%s: %v views installed, want %v", r.w.name, got, want)
			}
			for _, m := range e2eMetrics {
				if v, ok := rep.E2E[m.name]; !ok || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.w.name, m.name, v)
				}
			}
			for _, m := range layerMetrics {
				if _, ok := rep.Layer[m.name]; !ok && m.name[:8] != "harness." {
					t.Errorf("%s: per-layer metric %s not reported", r.w.name, m.name)
				}
			}
			if len(rep.E2E) != len(e2eMetrics) {
				t.Errorf("%s: %d end-to-end metrics reported, %d declared", r.w.name, len(rep.E2E), len(e2eMetrics))
			}
		}
		for _, traced := range []bool{false, true} {
			c := r.contract(traced)
			want := e2eMetrics
			if traced {
				want = layerMetrics
			}
			if len(c.Metrics) != len(want) {
				t.Errorf("%s: contract line has %d metrics, want %d", r.w.name, len(c.Metrics), len(want))
			}
			for name := range c.Metrics {
				if !nameOK.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", r.w.name, name)
				}
			}
		}
		// The traced run must have seen the layers it claims to time.
		tr := r.traced[0].Layer
		for _, name := range []string{"tob.submit_us_per_msg", "tob.up_self_us_per_msg", "dvsg.up_self_us_per_msg", "net.send_us_per_msg"} {
			if tr[name] <= 0 {
				t.Errorf("%s: traced %s = %v, want > 0", r.w.name, name, tr[name])
			}
		}
		switch r.w.name {
		case "sharded_cross":
			for _, name := range []string{"net.groupmux.send_self_us_per_msg", "mcast.hook_self_us_per_delivery", "mcast.submit_us_per_multi", "mcast.control_per_multi", "shard.ring_lookup_ns"} {
				if tr[name] <= 0 {
					t.Errorf("%s: traced %s = %v, want > 0", r.w.name, name, tr[name])
				}
			}
		case "fabric_recorded":
			for _, name := range []string{"conform.observe_us_per_msg", "conform.steps_per_msg", "conform.trace_bytes_per_msg", "conform.replay_s"} {
				if tr[name] <= 0 {
					t.Errorf("%s: traced %s = %v, want > 0", r.w.name, name, tr[name])
				}
			}
		}
	}
}
