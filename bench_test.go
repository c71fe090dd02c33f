// Benchmarks regenerating the experiment suite of EXPERIMENTS.md. The paper
// is a formal-methods paper with no measurement tables, so each benchmark
// corresponds to one of the experiments E1–E8 defined in DESIGN.md —
// mechanized theorem checks (E1–E3), the availability and recovery claims
// that motivate dynamic primaries (E4–E8) — plus micro-benchmarks of the
// hot data structures. Custom metrics (availability fraction, primaries
// formed, recovery latency) are attached via b.ReportMetric.
package dvs_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"math/rand"

	dvs "repro"
	"repro/internal/conform"
	"repro/internal/ioa"
	"repro/internal/member"
	"repro/internal/naive"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/sim"
	vsspec "repro/internal/spec/vs"
	"repro/internal/types"
	"repro/internal/vsg"
)

// --- E1: specification invariants (Figures 1 and 2, Invariants 3.1/4.1/4.2) ---
//
// E1–E3 each run a serial and a parallel variant over the same seed set so
// the speedup of the worker-pool seed fan-out is directly visible (compare
// parallel=1 with parallel=GOMAXPROCS ns/op). Both variants check the same
// executions and report identical failures.

// benchModes are the fan-out widths benchmarked for every theorem check:
// serial, plus one worker per core (on a single-core machine the pool is
// still exercised with 4 workers so the concurrent path stays covered,
// though no speedup is possible there).
func benchModes() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1, 4}
}

func BenchmarkE1SpecInvariants(b *testing.B) {
	for _, par := range benchModes() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := dvs.CheckConfig{Procs: 4, Steps: 400, Seeds: 8, Parallel: par}
			b.ReportAllocs()
			var steps, states int64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				rep, err := dvs.CheckVSInvariants(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps, states = steps+rep.Steps, states+rep.States
				if rep, err = dvs.CheckDVSInvariants(cfg); err != nil {
					b.Fatal(err)
				}
				steps, states = steps+rep.Steps, states+rep.States
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(states)/float64(b.N), "states")
		})
	}
}

// --- E2: Theorem 5.9 (DVS-IMPL refines DVS, Figure 4 mapping) ---

func BenchmarkE2RefinementDVS(b *testing.B) {
	for _, par := range benchModes() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := dvs.CheckConfig{Procs: 4, Steps: 300, Seeds: 8, Parallel: par}
			b.ReportAllocs()
			var steps, states int64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				rep, err := dvs.CheckDVSRefinement(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps, states = steps+rep.Steps, states+rep.States
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(states)/float64(b.N), "states")
		})
	}
}

// --- E3: Theorem 6.4 (TO-IMPL's traces are TO traces) ---

func BenchmarkE3RefinementTO(b *testing.B) {
	for _, par := range benchModes() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := dvs.CheckConfig{Procs: 4, Steps: 300, Seeds: 8, Parallel: par}
			b.ReportAllocs()
			var steps, states int64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				rep, err := dvs.CheckTOTraceInclusion(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps, states = steps+rep.Steps, states+rep.States
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(states)/float64(b.N), "states")
		})
	}
}

// --- E4: availability under churn, dynamic vs static primaries ---

func benchAvailability(b *testing.B, mode dvs.Mode) {
	var frac float64
	var finalUp int
	for i := 0; i < b.N; i++ {
		res, err := sim.Availability(sim.AvailabilityConfig{
			Active: 5, Spares: 5, Mode: mode,
			Replacements: 5,
			ChurnPeriod:  100 * time.Millisecond,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		frac += res.Fraction()
		if res.FinalAvailable {
			finalUp++
		}
	}
	b.ReportMetric(frac/float64(b.N), "availability")
	b.ReportMetric(float64(finalUp)/float64(b.N), "final-alive")
}

func BenchmarkE4AvailabilityDynamic(b *testing.B) { benchAvailability(b, dvs.ModeDynamic) }
func BenchmarkE4AvailabilityStatic(b *testing.B)  { benchAvailability(b, dvs.ModeStatic) }

// --- E5: partition cascades and the primary intersection chain ---

func BenchmarkE5PartitionCascade(b *testing.B) {
	var primaries float64
	for i := 0; i < b.N; i++ {
		res, err := sim.PartitionCascade(sim.CascadeConfig{
			Processes: 6, Rounds: 6,
			RoundPeriod: 100 * time.Millisecond,
			Seed:        int64(i) + 3,
		})
		if err != nil {
			b.Fatalf("%v (result %s)", err, res)
		}
		if !res.ChainOK {
			b.Fatal("intersection chain violated")
		}
		primaries += float64(len(res.Primaries))
	}
	b.ReportMetric(primaries/float64(b.N), "primaries/run")
}

// --- E6: the REGISTER mechanism (ambiguity growth ablation) ---

func BenchmarkE6RegisterAblation(b *testing.B) {
	var withAmb, withoutAmb float64
	for i := 0; i < b.N; i++ {
		with, err := sim.RegisterAblation(sim.AblationConfig{
			Processes: 5, Rounds: 4, RoundPeriod: 100 * time.Millisecond, Seed: int64(i) + 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		without, err := sim.RegisterAblation(sim.AblationConfig{
			Processes: 5, Rounds: 4, RoundPeriod: 100 * time.Millisecond, Seed: int64(i) + 6,
			DisableReg: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		withAmb += float64(with.MaxAmbiguous)
		withoutAmb += float64(without.MaxAmbiguous)
	}
	b.ReportMetric(withAmb/float64(b.N), "maxAmb-with-register")
	b.ReportMetric(withoutAmb/float64(b.N), "maxAmb-without-register")
}

// --- E7: local majority check vs global intersection ---

func BenchmarkE7MajorityCheck(b *testing.B) {
	universe := types.RangeProcSet(5)
	v0 := types.InitialView(types.NewProcSet(0, 1, 4))
	var proposed, accepted float64
	for i := 0; i < b.N; i++ {
		im := dvscore.NewImpl(universe, v0)
		ex := &ioa.Executor{Steps: 600, Seed: int64(i)}
		if _, err := ex.Run(im, dvscore.NewEnv(int64(i)+17, universe), nil); err != nil {
			b.Fatal(err)
		}
		// Views created by VS vs views that became primaries.
		proposed += float64(len(im.VS().Created()) - 1)
		primaries := make(map[types.ViewID]bool) // Att: the views some member attempted
		for _, p := range universe.Sorted() {
			for _, v := range im.Node(p).Attempted() {
				primaries[v.ID] = true
			}
		}
		accepted += float64(len(primaries) - 1)
		// The global guarantee the local check buys (Invariant 5.6).
		if err := dvscore.CheckInvariant56(im); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(proposed/float64(b.N), "vs-views/run")
	b.ReportMetric(accepted/float64(b.N), "primaries/run")
}

// --- E8: TO service throughput and post-heal recovery ---

func BenchmarkE8TOThroughput(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Throughput(sim.ThroughputConfig{
					Processes: n, Duration: 300 * time.Millisecond, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Consistent {
					b.Fatal("inconsistent delivery")
				}
				rate += res.PerSecond()
			}
			b.ReportMetric(rate/float64(b.N), "msg/s")
		})
	}
}

// BenchmarkE13RecordOverhead is the E8 n=5 pump run three times: without
// observers, with Config.Stream spilling every macro-step to a chunked trace,
// and with Config.Online replaying every macro-step in process (E13).
// scripts/check.sh gates recorded/unrecorded and checked/unrecorded, and the
// checked case's mean views installed against the unrecorded one's (a check
// that perturbs the run shows as view changes). Every recorded run must close
// its stream without error, and the first one is replayed sealed and clean so
// the rate is that of a recorder whose trace actually checks out; every
// checked run must have re-executed all it observed and found nothing.
func BenchmarkE13RecordOverhead(b *testing.B) {
	for _, name := range []string{"unrecorded", "recorded", "checked"} {
		b.Run(name, func(b *testing.B) {
			var rate, views float64
			for i := 0; i < b.N; i++ {
				cfg := sim.ThroughputConfig{Processes: 5, Duration: 300 * time.Millisecond, Seed: int64(i), Online: name == "checked"}
				if name == "recorded" {
					stream, err := dvs.NewTraceStream(b.TempDir(), dvs.TraceStreamOptions{})
					if err != nil {
						b.Fatal(err)
					}
					cfg.Stream = stream
				}
				res, err := sim.Throughput(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Consistent {
					b.Fatal("inconsistent delivery")
				}
				if cfg.Stream != nil {
					if err := cfg.Stream.Close(); err != nil {
						b.Fatalf("closing trace stream: %v", err)
					}
					if i == 0 {
						rep, err := dvs.ReplayTraceStream(cfg.Stream.Dir())
						if err != nil {
							b.Fatal(err)
						}
						if !rep.OK() || !rep.Sealed {
							b.Fatalf("recorded run does not replay sealed and clean: %s", rep)
						}
					}
				}
				if cs := res.Check; cfg.Online && (cs.Steps == 0 || cs.Steps != cs.StepsChecked || cs.Divergences+cs.Violations > 0 || cs.LastError != "") {
					b.Fatalf("checked run: %+v", cs)
				}
				rate += res.PerSecond()
				views += float64(res.Run.Views)
			}
			b.ReportMetric(rate/float64(b.N), "msg/s")
			b.ReportMetric(views/float64(b.N), "views")
		})
	}
}

// BenchmarkE14ShardedThroughput measures aggregate totally-ordered delivery
// rate against the number of independent groups at a fixed 10% cross-group
// multicast fraction (E14). Keyed traffic routes by consistent hash onto
// per-group stacks that order independently, so on a multi-core machine the
// aggregate rate should scale with the group count; the cross-group
// fraction keeps the atomic multicast (whose shared messages serialize
// across groups) in the measured path. Every run's per-group total orders,
// multicast agreement, and cross-group partial order are verified.
func BenchmarkE14ShardedThroughput(b *testing.B) {
	for _, groups := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Sharded(sim.ShardedConfig{
					Processes: 4, Groups: groups, Duration: 300 * time.Millisecond,
					CrossFrac: 0.1, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Consistent {
					b.Fatal("inconsistent sharded delivery")
				}
				rate += res.PerSecond()
			}
			b.ReportMetric(rate/float64(b.N), "msg/s")
		})
	}
}

func BenchmarkE8Recovery(b *testing.B) {
	run := func(name string, cfg sim.RecoveryConfig) {
		b.Run(name, func(b *testing.B) {
			var tPrimary, tMessage, msgs float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				res, err := sim.Recovery(cfg)
				if err != nil {
					b.Fatalf("%v (result %s)", err, res)
				}
				tPrimary += res.TimeToPrimary.Seconds() * 1e3
				tMessage += res.TimeToMessage.Seconds() * 1e3
				msgs += float64(res.ExtraMessages)
			}
			b.ReportMetric(tPrimary/float64(b.N), "ms-to-primary")
			b.ReportMetric(tMessage/float64(b.N), "ms-to-message")
			b.ReportMetric(msgs/float64(b.N), "net-msgs")
		})
	}
	for _, n := range []int{3, 5, 7, 9} {
		run(fmt.Sprintf("n=%d", n), sim.RecoveryConfig{Processes: n})
	}
	// The state exchange carries what the full view has not confirmed, not
	// the history: the same heal after 20k messages must cost what it costs
	// on an empty group (check.sh holds it within 3×).
	run("n=5/history=20k", sim.RecoveryConfig{Processes: 5, History: 20000, Timeout: 30 * time.Second})
}

// --- Per-layer ledger (BENCH_layers.json): the cores in isolation ---
//
// Each row drives one protocol core through Step with no shell, transport or
// goroutine around it, so its ns/op and allocs/op are the core's own cost
// per unit of work. scripts/check.sh gates the allocs/op (machine-
// independent); ns/op is reported.

// BenchmarkCoreDVSStepBatch is one 10-label batch (the size tob coalesces
// at saturation, 32 B payloads like the repo benchmark) delivered and
// safe-indicated through the VS-TO-DVS core: two macro-steps, two head
// checks.
func BenchmarkCoreDVSStepBatch(b *testing.B) {
	v0 := types.InitialView(types.RangeProcSet(3))
	n := dvscore.NewNode(0, v0, true)
	msgs := make([]types.Msg, 10)
	for i := range msgs {
		msgs[i] = tocore.LabelMsg{L: types.Label{ID: v0.ID, Seqno: i + 1, Origin: 1}, A: fmt.Sprintf("%032d", i)}
	}
	var batch types.Msg = types.Batch{Msgs: msgs} // as the wire hands it in: boxed once, for both steps
	var out dvscore.Outbox
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Effects = out.Effects[:0]
		dvscore.Step(n, dvscore.Event{Kind: dvscore.EvVSRecv, M: batch, From: 1}, true, &out)
		dvscore.Step(n, dvscore.Event{Kind: dvscore.EvVSSafe, M: batch, From: 1}, true, &out)
		if len(out.Effects) != 2 {
			b.Fatalf("%d effects, want deliver + safe", len(out.Effects))
		}
	}
}

// toLabelStepper returns a fresh DVS-TO-TO node and the function that takes
// label i of one peer through its whole life in the core: gprcv, safe,
// confirm, brcv (32 B payloads like the repo benchmark). The node has been
// told the universe, as in every runtime, and its view is that, so each
// label's life ends with its truncation — unless pinned, which is a node
// whose view lacks a process and so holds everything.
func toLabelStepper(b *testing.B, pinned bool) (*tocore.Node, func(i int)) {
	v0 := types.InitialView(types.RangeProcSet(3))
	n := tocore.NewNode(0, v0, true, false)
	var out tocore.Outbox
	universe := v0.Members
	if pinned {
		universe = types.RangeProcSet(4)
	}
	if err := tocore.Step(n, tocore.Event{Kind: tocore.EvUniverse, Set: universe}, true, &out); err != nil {
		b.Fatal(err)
	}
	return n, func(i int) {
		out.Effects = out.Effects[:0]
		var m types.Msg = tocore.LabelMsg{L: types.Label{ID: v0.ID, Seqno: i + 1, Origin: 1}, A: "00000000000000000000000000000000"}
		if err := tocore.Step(n, tocore.Event{Kind: tocore.EvRecv, M: m, From: 1}, true, &out); err != nil {
			b.Fatal(err)
		}
		if err := tocore.Step(n, tocore.Event{Kind: tocore.EvSafe, M: m, From: 1}, true, &out); err != nil {
			b.Fatal(err)
		}
		if len(out.Effects) != 2 {
			b.Fatalf("label %d: %d effects, want confirm + deliver", i, len(out.Effects))
		}
	}
}

// BenchmarkCoreTOStepLabel is one label's whole life in the DVS-TO-TO core
// on a node that has been through 100k labels, what a saturated run sends in
// half a second. check.sh gates allocs/op and, at the fixed iteration count
// bench.sh uses, B/op: what is left is the label message, boxed once as the
// wire hands it in, and the slot the label and its payload take for as long
// as they are held. Events and effects are values and box nothing.
func BenchmarkCoreTOStepLabel(b *testing.B) {
	const history = 100000
	_, step := toLabelStepper(b, false)
	for i := 0; i < history; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(history + i)
	}
}

// BenchmarkStreamRecord is the recorder's row of the layer ledger: one
// typical TO record (a label's safe indication, its confirm and its
// delivery) observed into a stream recorder with the default windows, whose
// writer cuts and writes chunks to disk as in a recorded run. check.sh gates
// allocs/op: the record is encoded into the node's scratch and copied into
// blocks from the writer's pool, so only a cut (its job) and a block the
// pool has none for allocate, once per thousands of records.
func BenchmarkStreamRecord(b *testing.B) {
	r, err := conform.NewStreamRecorder(b.TempDir(), conform.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	v0 := types.InitialView(types.RangeProcSet(3))
	sn, err := r.Node(0, 0, v0, true, true, true, false)
	if err != nil {
		b.Fatal(err)
	}
	m := tocore.LabelMsg{L: types.Label{ID: v0.ID, Seqno: 1, Origin: 1}, A: "00000000000000000000000000000000"}
	ev := tocore.Event{Kind: tocore.EvSafe, M: m, From: 1}
	fx := []tocore.Effect{{Kind: tocore.FxConfirm}, {Kind: tocore.FxDeliver, A: m.A, Origin: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.ObserveTO(ev, fx)
	}
	b.StopTimer()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWireFrame is the transport row of the layer ledger: one TCP frame
// body encoded into a reused buffer and decoded again, which every frame
// pays once per peer. heartbeat is the smallest frame; ordered10x64B the
// steady-state one (the leader's Ordered carrying a tob Batch of ten labels
// with 64-byte payloads); summary20k the state-exchange summary a node sends
// after 20k stable messages, which is its base and digest and no label.
// check.sh gates the rows' allocs/op and the summary's size, which no
// machine changes. The gob figures for the first two values, and for a
// summary that carried the 20k labels, are in EXPERIMENTS.md E15.
func BenchmarkWireFrame(b *testing.B) {
	for _, v := range []any{member.Heartbeat{}, vsg.Ordered{}, vsg.Data{}} {
		netfab.RegisterWireType(v)
	}
	g := types.ViewID{Seq: 7, Origin: 2}
	label := func(i int) types.Label { return types.Label{ID: g, Seqno: i, Origin: types.ProcID(i % 5)} }
	payload := string(make([]byte, 64))
	batch := types.Batch{Msgs: make([]types.Msg, 10)}
	for i := range batch.Msgs {
		batch.Msgs[i] = tocore.LabelMsg{L: label(i), A: payload}
	}
	stable, step := toLabelStepper(b, false)
	for i := 0; i < 20000; i++ {
		step(i)
	}
	sum := stable.Summary()
	if sum.Base != 20000 || len(sum.Ord)+len(sum.Con) != 0 {
		b.Fatalf("summary after 20k stable labels: base %d, %d labels, %d payloads", sum.Base, len(sum.Ord), len(sum.Con))
	}
	for _, row := range []struct {
		name string
		v    any
	}{
		{"heartbeat", member.Heartbeat{}},
		{"ordered10x64B", vsg.Ordered{ViewID: g, Seq: 123456, Sender: 3, SenderSeq: 4321, Safe: 123400, Payload: batch}},
		{"summary20k", vsg.Data{ViewID: g, SenderSeq: 1, Payload: tocore.SummaryMsg{X: sum}}},
	} {
		b.Run(row.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = netfab.AppendPayload(buf[:0], row.v, 0); err != nil {
					b.Fatal(err)
				}
				if _, err = netfab.DecodeFrame(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "frame_bytes")
		})
	}
}

// BenchmarkCoreTOGrow is the same path from an empty node through 200k
// labels, the length of a fabric_sat run: the row that would show a cost
// that grows with the run, which StepLabel — timing only from 100k on —
// averages away. One op is the whole run; ns/label and B/label are per
// message.
func BenchmarkCoreTOGrow(b *testing.B) {
	const labels = 200000
	b.Run("0→200k", func(b *testing.B) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			_, step := toLabelStepper(b, false)
			for l := 0; l < labels; l++ {
				step(l)
			}
		}
		runtime.ReadMemStats(&after)
		per := float64(b.N) * labels
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/label")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/label")
	})
}

// BenchmarkCoreTOClone is Clone of a node holding 100k labels, pinned by a
// process that is away — what the explorer pays per successor state at that
// depth; nothing at run time clones a core. Reported, not gated.
func BenchmarkCoreTOClone(b *testing.B) {
	const history = 100000
	b.Run("history=100k", func(b *testing.B) {
		n, step := toLabelStepper(b, true)
		for i := 0; i < history; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c := n.Clone(); c.NextReport() != n.NextReport() {
				b.Fatal("clone differs")
			}
		}
	})
}

// --- Micro-benchmarks of the hot paths ---

func BenchmarkViewMajorityIntersection(b *testing.B) {
	a := types.RangeProcSet(64)
	c := types.NewProcSet()
	for i := 32; i < types.MaxProcs; i++ {
		c = c.With(types.ProcID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.MajorityOf(a) || c.MajorityOf(a) == a.MajorityOf(c) && false {
			b.Fatal("unexpected")
		}
	}
}

func BenchmarkLabelSort(b *testing.B) {
	base := make([]types.Label, 256)
	for i := range base {
		base[i] = types.Label{
			ID:     types.ViewID{Seq: uint64(i % 7), Origin: types.ProcID(i % 5)},
			Seqno:  257 - i,
			Origin: types.ProcID(i % 11),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls := types.CloneSeq(base)
		types.SortLabels(ls)
	}
}

func BenchmarkGotStateFullOrder(b *testing.B) {
	gs := make(types.GotState, 5)
	for p := types.ProcID(0); p < 5; p++ {
		con := make(types.Content, 64)
		ord := make([]types.Label, 0, 64)
		for i := 0; i < 64; i++ {
			l := types.Label{ID: types.ViewID{Seq: uint64(p)}, Seqno: i + 1, Origin: p}
			con[l] = "m"
			ord = append(ord, l)
		}
		gs[p] = types.Summary{Con: con, Ord: ord, Next: 1, High: types.ViewID{Seq: uint64(p)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := gs.FullOrder(); len(got.Ord) == 0 {
			b.Fatal("empty order")
		}
	}
}

func BenchmarkFabricSend(b *testing.B) {
	cl, err := dvs.NewCluster(dvs.Config{Processes: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(50 * time.Millisecond)
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		cl.Process(0).Broadcast("x")
		done++
		if done%256 == 0 {
			drainN(cl.Process(0), 256)
		}
	}
}

func drainN(p *dvs.Process, n int) {
	for i := 0; i < n; i++ {
		select {
		case <-p.Deliveries():
		case <-time.After(2 * time.Second):
			return
		}
	}
}

func BenchmarkImplFingerprint(b *testing.B) {
	universe := types.RangeProcSet(5)
	v0 := types.InitialView(types.NewProcSet(0, 1, 4))
	im := dvscore.NewImpl(universe, v0)
	ex := &ioa.Executor{Steps: 300, Seed: 5}
	if _, err := ex.Run(im, dvscore.NewEnv(5, universe), nil); err != nil {
		b.Fatal(err)
	}
	ioa.FpOf(im) // compile the walker for every type in the state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if (ioa.FpOf(im) == ioa.Fp{}) {
			b.Fatal("empty fingerprint")
		}
	}
}

// --- E12: deep exhaustive exploration (scaled bounds, symmetry reduction) ---

// E12 constants: the deterministic counts of the CheckExploreDeep defaults.
// Every variant asserts them, so the benchmark doubles as a determinism
// check — the parallel BFS and the symmetry-reduced BFS must visit exactly
// the same space on every run at every worker count. The benchmark reports
// the counts it measured; check.sh's e12_guard reads its expectation from
// these lines.
const (
	e12States    = 38566
	e12Edges     = 108312
	e12SymStates = 6527
	e12SymEdges  = 18553
)

func BenchmarkE12DeepExplore(b *testing.B) {
	for _, par := range benchModes() {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			var steps, states int64
			for i := 0; i < b.N; i++ {
				rep, err := dvs.CheckExploreDeep(dvs.ExploreDeepConfig{Parallel: par})
				if err != nil {
					b.Fatal(err)
				}
				if rep.States != e12States || rep.Steps != e12Edges {
					b.Fatalf("nondeterministic exploration: %d states / %d edges, want %d / %d",
						rep.States, rep.Steps, e12States, e12Edges)
				}
				steps, states = steps+rep.Steps, rep.States
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(states), "states")
		})
	}
	b.Run("symmetry", func(b *testing.B) {
		b.ReportAllocs()
		var steps, states int64
		for i := 0; i < b.N; i++ {
			rep, err := dvs.CheckExploreDeep(dvs.ExploreDeepConfig{Symmetry: true})
			if err != nil {
				b.Fatal(err)
			}
			if rep.States != e12SymStates || rep.Steps != e12SymEdges {
				b.Fatalf("nondeterministic reduced exploration: %d states / %d edges, want %d / %d",
					rep.States, rep.Steps, e12SymStates, e12SymEdges)
			}
			steps, states = steps+rep.Steps, rep.States
		}
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		b.ReportMetric(float64(states), "states")
		b.ReportMetric(float64(e12States)/float64(states), "state-reduction")
	})
}

// --- E10: why information exchange matters (naive dynamic voting baseline) ---

func BenchmarkE10NaiveSplitBrain(b *testing.B) {
	universe := types.RangeProcSet(5)
	v0 := types.InitialView(universe)
	splits := 0
	runs := 0
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 30; seed++ {
			im := naive.NewImpl(universe, v0)
			env := naiveEnv(universe, seed)
			ex := &ioa.Executor{Steps: 300, Seed: seed}
			if _, err := ex.Run(im, env, nil); err != nil {
				b.Fatal(err)
			}
			runs++
			if im.CheckIntersectionChain() != nil {
				splits++
			}
		}
	}
	b.ReportMetric(float64(splits)/float64(runs), "splitbrain-fraction")
}

func naiveEnv(universe types.ProcSet, seed int64) ioa.Environment {
	rng := rand.New(rand.NewSource(seed))
	procs := universe.Sorted()
	proposed := 0
	return ioa.EnvironmentFunc(func(a ioa.Automaton) []ioa.Action {
		im, ok := a.(*naive.Impl)
		if !ok || proposed >= 24 {
			return nil
		}
		members := types.RandomSubset(rng, procs)
		var maxID types.ViewID
		for _, v := range im.VS().Created() {
			if maxID.Less(v.ID) {
				maxID = v.ID
			}
		}
		v := types.View{ID: maxID.Next(members.First()), Members: members}
		if !im.VS().CreateViewCandidateOK(v) {
			return nil
		}
		proposed++
		return []ioa.Action{{Name: "vs-createview", Kind: ioa.KindInternal,
			Param: vsspec.CreateViewParam{View: v}}}
	})
}
