// Command dvsim runs the runtime-stack experiment scenarios from the shell
// and prints the result rows recorded in EXPERIMENTS.md. It can also record
// the protocol-core traces of a run and replay them through the
// machine-checked cores (-record / -replay), turning any scenario into a
// trace-conformance check.
//
// Traces are recorded as a chunked on-disk stream: the recorder spills a
// segment every few thousand macro-steps, so its memory stays bounded no
// matter how long the run is, and the replayer checks the paper's
// invariants incrementally at every chunk boundary. -replay takes a trace
// directory: a single stream, or a sharded run's directory of streams.
//
// Usage:
//
//	dvsim -scenario availability|cascade|throughput|recovery|ablation|sharded [flags]
//	dvsim -scenario cascade -record tracedir    # run, stream, verify, keep
//	dvsim -replay tracedir                      # re-check a recorded trace
//	dvsim -scenario throughput -check           # run the online checker (E13)
//	dvsim -scenario sharded -groups 4 -crossfrac 0.1 -record tracedir  # E14
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	dvs "repro"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dvsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("scenario", "availability", "availability, cascade, throughput, recovery, ablation, or sharded")
		procs    = flag.Int("procs", 5, "group size")
		groups   = flag.Int("groups", 2, "independent groups (sharded)")
		crossfr  = flag.Float64("crossfrac", 0.1, "cross-group multicast fraction (sharded)")
		spares   = flag.Int("spares", 5, "spare processes (availability)")
		rounds   = flag.Int("rounds", 6, "rounds / replacements")
		duration = flag.Duration("duration", 500*time.Millisecond, "pump duration (throughput)")
		period   = flag.Duration("period", 150*time.Millisecond, "churn/round period")
		seed     = flag.Int64("seed", 1, "seed")
		record   = flag.String("record", "", "stream protocol traces to this directory (chunked segments), then verify conformance; scenarios with a static variant record it to <dir>-static")
		traceWin = flag.Int("trace-window", 0, "macro-steps per trace chunk (0 = default)")
		replay   = flag.String("replay", "", "replay a recorded trace directory (one stream, or a sharded run's group-NN/ and mcast/ streams) through the protocol cores and check conformance (ignores -scenario)")
		check    = flag.Bool("check", false, "run the in-process conformance checker during the run and report what it cost (throughput scenario)")
	)
	flag.Parse()

	if *replay != "" {
		return replayPath(*replay)
	}

	// The sharded scenario records to a sharded trace directory (one
	// group-tagged chunked stream per group plus the multicast stream), not
	// a single stream, so it branches before the stream is created.
	if *scenario == "sharded" {
		res, err := sim.Sharded(sim.ShardedConfig{
			Processes: *procs, Groups: *groups, Duration: *duration,
			CrossFrac: *crossfr, Seed: *seed, StreamDir: *record,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
		fmt.Printf("  net: %s\n", res.Run)
		if !res.Consistent {
			return fmt.Errorf("sharded run inconsistent: %s", res)
		}
		if *record != "" {
			fmt.Printf("recorded sharded trace to %s\n", *record)
			return replayPath(*record)
		}
		return nil
	}

	var stream *dvs.TraceStream
	if *record != "" {
		var err error
		stream, err = dvs.NewTraceStream(*record, dvs.TraceStreamOptions{WindowSteps: *traceWin})
		if err != nil {
			return err
		}
	}
	// skipRecord warns when a variant of the scenario cannot be recorded, so
	// "-record" is never silently ignored: the replayer models registration,
	// which the disabled-registration ablation departs from.
	skipRecord := func(variant, why string) {
		if stream != nil {
			fmt.Fprintf(os.Stderr, "dvsim: -record: not recording the %s variant (%s)\n", variant, why)
		}
	}
	// One stream holds exactly one run (its header registers each process
	// once), so scenarios that run both modes record the static variant to a
	// sibling "<dir>-static" trace and replay it separately.
	staticDir := ""

	switch *scenario {
	case "availability":
		for _, mode := range []dvs.Mode{dvs.ModeDynamic, dvs.ModeStatic} {
			cfg := sim.AvailabilityConfig{
				Active: *procs, Spares: *spares, Mode: mode,
				Replacements: *rounds, ChurnPeriod: *period, Seed: *seed,
			}
			var sstream *dvs.TraceStream
			if mode == dvs.ModeDynamic {
				cfg.Stream = stream
			} else if *record != "" {
				staticDir = *record + "-static"
				var err error
				sstream, err = dvs.NewTraceStream(staticDir, dvs.TraceStreamOptions{WindowSteps: *traceWin})
				if err != nil {
					return err
				}
				cfg.Stream = sstream
			}
			res, err := sim.Availability(cfg)
			if err != nil {
				if sstream != nil {
					sstream.Close()
				}
				return err
			}
			fmt.Println(res)
			fmt.Printf("  net: %s\n", res.Run)
			if sstream != nil {
				if err := sstream.Close(); err != nil {
					return fmt.Errorf("sealing static trace stream: %w", err)
				}
			}
		}
	case "cascade":
		res, err := sim.PartitionCascade(sim.CascadeConfig{
			Processes: *procs, Rounds: *rounds, RoundPeriod: *period, Seed: *seed,
			Stream: stream,
		})
		if err != nil {
			return fmt.Errorf("%w (result %s)", err, res)
		}
		fmt.Println(res)
		fmt.Printf("  net: %s\n", res.Run)
		for _, v := range res.Primaries {
			fmt.Printf("  primary %s\n", v)
		}
	case "throughput":
		res, err := sim.Throughput(sim.ThroughputConfig{
			Processes: *procs, Duration: *duration, Seed: *seed,
			Stream: stream, Online: *check,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
		fmt.Printf("  net: %s\n", res.Run)
		if *check {
			cs := res.Check
			fmt.Printf("  check: %d checks over %d steps (%d re-stepped), %d divergences, %d violations, stalls=%d, %.2fms total, %.2fms max\n",
				cs.Checks, cs.Steps, cs.StepsChecked, cs.Divergences, cs.Violations, cs.Stalls,
				float64(cs.CheckNanos)/1e6, float64(cs.MaxCheckNanos)/1e6)
			for _, f := range cs.Findings {
				fmt.Printf("  finding: %s\n", f)
			}
			if cs.LastError != "" {
				return fmt.Errorf("online checker: %s", cs.LastError)
			}
			if cs.Steps != cs.StepsChecked {
				return fmt.Errorf("online checker re-stepped %d of %d observed steps", cs.StepsChecked, cs.Steps)
			}
		}
	case "recovery":
		res, err := sim.Recovery(sim.RecoveryConfig{Processes: *procs, Seed: *seed, Stream: stream})
		if err != nil {
			return fmt.Errorf("%w (result %s)", err, res)
		}
		fmt.Println(res)
		fmt.Printf("  net: %s\n", res.Run)
	case "ablation":
		for _, disable := range []bool{false, true} {
			cfg := sim.AblationConfig{
				Processes: *procs, Rounds: *rounds, RoundPeriod: *period,
				DisableReg: disable, Seed: *seed,
			}
			if !disable {
				cfg.Stream = stream
			} else {
				skipRecord("disabled-registration", "the ablation departs from the replayer's registration model")
			}
			res, err := sim.RegisterAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res)
			fmt.Printf("  net: %s\n", res.Run)
		}
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	if stream != nil {
		if err := stream.Close(); err != nil {
			return fmt.Errorf("sealing trace stream: %w", err)
		}
		fmt.Printf("recorded chunked trace to %s\n", *record)
		if err := replayPath(*record); err != nil {
			return err
		}
		if staticDir != "" {
			fmt.Printf("recorded static-variant trace to %s\n", staticDir)
			return replayPath(staticDir)
		}
	}
	return nil
}

// replayPath re-checks a recorded trace directory: one holding group-NN
// subdirectories is a sharded trace, any other a single chunked stream.
func replayPath(path string) error {
	if gi, err := os.Stat(filepath.Join(path, "group-00")); err == nil && gi.IsDir() {
		rep, err := dvs.ReplayShardedTrace(path)
		if err != nil {
			return err
		}
		fmt.Printf("conformance: %s\n", rep)
		return rep.Err()
	}
	rep, err := dvs.ReplayTraceStream(path)
	if err != nil {
		return err
	}
	return reportStream(rep)
}

// reportStream prints the streamed conformance outcome, including chunk
// accounting and truncation status, and returns its error.
func reportStream(rep *dvs.StreamConformanceReport) error {
	fmt.Printf("conformance: %s\n", rep)
	for _, m := range rep.Malformed {
		fmt.Printf("  malformed: %s\n", m)
	}
	for _, d := range rep.Divergences {
		fmt.Printf("  divergence: %s\n", d)
	}
	for _, v := range rep.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	if rep.Truncated != "" {
		fmt.Printf("  truncated: %s\n", rep.Truncated)
	}
	return rep.Err()
}
