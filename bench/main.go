// Command bench is the repository's benchmark: five closed-loop workloads
// over the runtime stack, seven end-to-end metrics from untraced
// repetitions, and per-layer metrics from a traced repetition in which the
// benchmark assembles the same stacks itself with a timing shim at every
// boundary it can reach from outside. See README.md in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

const (
	defaultReps = 5
	minReps     = 3 // repetitions a time budget may not cut below
	repDeadline = 60 * time.Second
	maxReruns   = 2
	calibDrift  = 0.10 // calibration readings further apart than this rerun the repetition
	traceRounds = 2    // untraced/traced pairs in a -trace 1 run
	// The generator guard: on a saturating workload the sender must spend at
	// least this share of the submit phase waiting for the system.
	minBlockedShare = 0.5
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seeds the cluster, the sharded keys and which submissions are multicasts")
	seconds := flag.Int("seconds", 0, "time budget per workload: no repetition starts after it is spent (at least 3 run); 0 is no budget")
	reps := flag.Int("reps", defaultReps, "repetitions per workload; the median is reported")
	trace := flag.Int("trace", 0, "1 runs the traced repetitions and reports the per-layer metrics")
	out := flag.String("out", "", "file for the raw spans of a traced run, or for the -aa report")
	aa := flag.Int("aa", 0, "run the whole benchmark this many times and report how far the medians disagree")
	verbose := flag.Bool("v", false, "print every repetition's end-to-end metrics and calibration readings to standard error")
	child := flag.String("child", "", "internal: run one repetition described by this JSON and print its result")
	flag.Parse()

	if *child != "" {
		os.Exit(childMain(*child))
	}
	if flag.NArg() > 0 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name|all] [-seed n] [-seconds n] [-reps n] [-trace 0|1] [-out file] [-aa n]")
		os.Exit(2)
	}
	var ws []*workload
	if *workloadFlag == "all" {
		ws = workloads
	} else if w := findWorkload(*workloadFlag); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}
	o := options{seed: *seed, reps: *reps, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out, verbose: *verbose, rep: spawnRep, calibrate: calibrate, speedProbe: speedProbe}

	if *aa > 0 {
		if err := runAA(ws, o, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	results, err := runWorkloads(ws, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, r := range results {
		r.print(os.Stdout, o.traced)
	}
	if warning := generatorWarning(results); warning != "" {
		fmt.Println("WARNING:", warning)
	}
	if len(results) == 1 {
		// The driver's contract: the last line is one JSON object.
		line, err := json.Marshal(results[0].contract(o.traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func childMain(arg string) int {
	var spec repSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: bad -child value:", err)
		return 2
	}
	res, err := runRep(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// spawnRep runs one repetition in a fresh child process, so no repetition
// inherits heap, goroutines or sockets from the one before. The deadline
// makes a hung repetition an error instead of a hung command.
func spawnRep(spec repSpec) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	defer cancel()
	spec.Spawned = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: repetition exceeded its %v deadline", spec.Workload, repDeadline)
		}
		return nil, fmt.Errorf("%s: repetition failed: %w", spec.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s: unreadable repetition result: %w", spec.Workload, err)
	}
	return &res, nil
}

type options struct {
	seed    int64
	reps    int
	budget  time.Duration
	traced  bool
	out     string
	verbose bool
	// rep runs one repetition: in a child process for the command, in
	// process for the smoke test. calibrate and speedProbe read the machine;
	// the smoke test stubs them, they are most of its run time otherwise.
	rep        func(repSpec) (*repResult, error)
	calibrate  func() float64
	speedProbe func() float64
	// scale overrides the workloads' message counts (smoke test only):
	// warm-up and measured submissions per repetition, 0 for the table's.
	warm, measured int
}

// result is one workload's outcome over its repetitions.
type result struct {
	w          *workload
	reps       []*repResult // untraced repetitions
	traced     []*repResult
	attempted  int
	failed     int
	calib      []float64
	reruns     int
	correct    bool
	e2e, layer map[string]float64
	latSamples uint64
}

// bracketed runs one repetition between two readings of the calibration
// loop, and again (at most maxReruns times) when the readings disagree: the
// machine changed speed under the repetition. It also brackets it with the
// speed probe: repetitions run back to back, so *lastSpeed, the reading
// taken after the previous one, is the reading before this one.
func (r *result) bracketed(o options, spec repSpec, lastSpeed *float64) (*repResult, error) {
	for attempt := 0; ; attempt++ {
		c0 := o.calibrate()
		res, err := o.rep(spec)
		if err != nil {
			return nil, err
		}
		c1 := o.calibrate()
		after := o.speedProbe()
		res.Speed = math.Pow((*lastSpeed+after)/2/nominalSpeed, speedExponent)
		*lastSpeed = after
		r.attempted += res.Attempted
		r.failed += res.Failed
		if o.verbose {
			fmt.Fprintf(os.Stderr, "%s traced=%v calib %.1f %.1f speed %.3f, as measured:", spec.Workload, spec.Traced, c0, c1, res.Speed)
			for _, m := range e2eMetrics {
				fmt.Fprintf(os.Stderr, " %s=%.4g", m.name, res.E2E[m.name])
			}
			fmt.Fprintln(os.Stderr)
		}
		lo, hi := c0, c1
		if lo > hi {
			lo, hi = hi, lo
		}
		if (hi-lo)/hi <= calibDrift || attempt == maxReruns {
			r.calib = append(r.calib, (c0+c1)/2)
			return res, nil
		}
		r.reruns++
	}
}

// runWorkloads runs every workload's repetitions, interleaved round-robin
// so each workload's samples span the whole run and slow drift of the
// machine lands in every workload's spread rather than in one's median.
func runWorkloads(ws []*workload, o options) ([]*result, error) {
	results := make([]*result, len(ws))
	spent := make([]time.Duration, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w, correct: true}
	}
	rounds := o.reps
	if o.traced {
		rounds = traceRounds
	}
	o.speedProbe() // the first reading in a process runs on a cold heap: discard it
	lastSpeed := o.speedProbe()
	for rep := 0; rep < rounds; rep++ {
		for i, w := range ws {
			if o.budget > 0 && rep >= minReps && spent[i] >= o.budget {
				continue
			}
			t0 := time.Now()
			r := results[i]
			// The recorded trace is replayed once per run: replaying costs
			// more than recording it, and every repetition records the same
			// inputs with the same code.
			spec := repSpec{Workload: w.name, Seed: o.seed, Warm: w.warm, Measured: w.measured, Replay: rep == 0 || o.traced}
			if o.traced {
				spec.Warm, spec.Measured = w.warm/4, w.traced
			}
			if o.measured > 0 {
				spec.Warm, spec.Measured = o.warm, o.measured
			}
			res, err := r.bracketed(o, spec, &lastSpeed)
			if err != nil {
				return nil, err
			}
			r.reps = append(r.reps, res)
			if o.traced {
				spec.Traced = true
				if rep == 0 {
					spec.Out = o.out
				}
				res, err := r.bracketed(o, spec, &lastSpeed)
				if err != nil {
					return nil, err
				}
				r.traced = append(r.traced, res)
			}
			spent[i] += time.Since(t0)
		}
	}
	for _, r := range results {
		r.summarize()
	}
	return results, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []*repResult, pick func(*repResult) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = pick(r)
	}
	return median(v)
}

// atNominalSpeed scales a repetition's measured value of an end-to-end
// metric to the nominal machine speed, by how fast the machine ran the speed
// probe around that repetition.
func atNominalSpeed(m metricDef, x *repResult) float64 {
	v := x.E2E[m.name]
	switch m.speed {
	case 1:
		return v * x.Speed
	case -1:
		return v / x.Speed
	}
	return v
}

func (r *result) summarize() {
	r.e2e, r.layer = map[string]float64{}, map[string]float64{}
	for _, m := range e2eMetrics {
		r.e2e[m.name] = medianOf(r.reps, func(x *repResult) float64 { return atNominalSpeed(m, x) })
	}
	layerFrom := r.reps
	if len(r.traced) > 0 {
		layerFrom = r.traced
	}
	for _, m := range layerMetrics {
		name := m.name
		r.layer[name] = medianOf(layerFrom, func(x *repResult) float64 { return x.Layer[name] })
	}
	r.latSamples = uint64(medianOf(r.reps, func(x *repResult) float64 { return float64(x.LatSamples) }))
	r.layer["harness.calib_mops"] = median(r.calib)
	r.layer["harness.speed_factor"] = medianOf(r.reps, func(x *repResult) float64 { return x.Speed })
	r.layer["harness.reruns"] = float64(r.reruns)
	if len(r.traced) > 0 {
		thr := func(x *repResult) float64 { return atNominalSpeed(e2eMetrics[0], x) }
		plain, traced := medianOf(r.reps, thr), medianOf(r.traced, thr)
		r.layer["harness.trace_overhead_pct"] = (plain - traced) / plain * 100
	}
	if r.w.saturating() {
		// Every repetition must pass, not just their median: one where the
		// generator was the bottleneck measured the generator.
		for _, x := range append(append([]*repResult(nil), r.reps...), r.traced...) {
			if share := x.Layer["harness.sender_blocked_share"]; share < minBlockedShare {
				fmt.Fprintf(os.Stderr, "bench: %s: sender blocked only %.2f of the submit phase: the generator, not the system, set the pace\n", r.w.name, share)
				r.correct = false
			}
		}
	}
}

// generatorWarning flags the symptom of a generator-bound benchmark: the
// TCP and the fabric run of the same load reading the same throughput.
func generatorWarning(results []*result) string {
	thr := map[string]float64{}
	for _, r := range results {
		thr[r.w.name] = r.e2e["throughput_msgs_s"]
	}
	f, t := thr["fabric_sat"], thr["tcp_sat"]
	if f > 0 && t > 0 && t > 0.9*f {
		return fmt.Sprintf("tcp_sat throughput %.0f is within 10%% of fabric_sat %.0f: the benchmark may be measuring its generator", t, f)
	}
	return ""
}

// reported is what a run prints: the end-to-end metrics, or the per-layer
// metrics when it was a traced run.
func (r *result) reported(traced bool) ([]metricDef, map[string]float64) {
	if traced {
		return layerMetrics, r.layer
	}
	return e2eMetrics, r.e2e
}

func (r *result) print(w *os.File, traced bool) {
	fmt.Fprintf(w, "%s: %d procs x %d groups, window %d: %d repetitions, %d operations attempted, %d failed\n",
		r.w.name, r.w.procs, r.w.groups, r.w.window, len(r.reps)+len(r.traced), r.attempted, r.failed)
	if !traced {
		fmt.Fprintf(w, "  times and rates at nominal machine speed; the machine ran at %.3f of it\n", r.layer["harness.speed_factor"])
	}
	defs, vals := r.reported(traced)
	for _, m := range defs {
		note := ""
		if strings.HasPrefix(m.name, "lat_") {
			note = fmt.Sprintf("  (%d samples per repetition)", r.latSamples)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", m.name, vals[m.name], m.unit, note)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) contract(traced bool) contractResult {
	c := contractResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := r.reported(traced)
	for _, m := range defs {
		c.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return c
}
