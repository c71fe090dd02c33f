// Package dvs is a dynamic view-oriented group communication service: a Go
// implementation of De Prisco, Fekete, Lynch and Shvartsman, "A Dynamic
// View-Oriented Group Communication Service" (PODC 1998).
//
// The package offers two things:
//
//   - A runtime stack (Cluster/Process): per-process goroutines over a
//     partitionable in-memory network running membership, a
//     view-synchronous layer (VS), the paper's dynamic primary-view filter
//     (VS-TO-DVS, Figure 3), and the totally-ordered broadcast application
//     (DVS-TO-TO, Figure 5). Applications broadcast payloads and receive a
//     gap-free prefix of a single system-wide total order, across
//     partitions, merges, churn and crashes.
//
//   - A specification layer (Check* functions): executable I/O automata for
//     the paper's VS, DVS and TO specifications, with mechanized checks of
//     every invariant (3.1, 4.1–4.2, 5.1–5.6, 6.1–6.3) and of both
//     refinement theorems (5.9 and 6.4) over seeded random executions.
//
// The filter and application automata that run in the runtime stack are the
// same code that the specification layer verifies.
//
// The mechanization surfaced five discrepancies in the printed paper, each
// reproducible via DemonstrateFindings (or `dvscheck -findings`) and
// documented in EXPERIMENTS.md: the literal dvs-safe precondition is not
// implementable by Figure 3 (F1); the two theorems do not compose without a
// view-synchronous drain rule (F2); Figure 5's LABEL can double-order a
// message (F3); Invariant 5.2(3) as printed is falsifiable (F4); and the
// free choice of recovery representative can reorder confirmed prefixes
// (F5). The
// default configurations use the minimal repairs; the literal figures
// remain available so every claim can be re-checked.
package dvs

import (
	"time"

	"repro/internal/conform"
	"repro/internal/tob"
	"repro/internal/types"
)

// Re-exported fundamental types. ProcID identifies a process; ViewID is a
// totally ordered view identifier; View is a pair of identifier and
// membership set.
type (
	// ProcID identifies a process.
	ProcID = types.ProcID
	// ViewID is a totally ordered view identifier.
	ViewID = types.ViewID
	// View is a view: identifier plus membership.
	View = types.View
	// Delivery is one totally-ordered message handed to the application.
	Delivery = tob.Delivery
	// ViewEvent reports a primary view becoming current or established.
	ViewEvent = tob.ViewEvent
)

// Mode selects the primary-view discipline.
type Mode int

// Modes. ModeDynamic is the paper's contribution: primaries defined
// relative to recent views via majority intersection and registration.
// ModeStatic is the classical baseline: primaries are majorities of the
// static initial membership.
const (
	ModeDynamic Mode = iota + 1
	ModeStatic
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case ModeDynamic:
		return "dynamic"
	case ModeStatic:
		return "static"
	default:
		return "mode?"
	}
}

// Config configures a Cluster.
type Config struct {
	// Processes is the size of the process universe (ids 0..Processes-1).
	Processes int
	// Initial lists the members of the initial view v0. Empty means all
	// processes. Processes outside v0 participate in membership and can
	// join later views — the dynamic universe the paper targets.
	Initial []int
	// Mode selects dynamic (default) or static primaries.
	Mode Mode
	// DisableRegistration turns off the application's REGISTER calls
	// (ablation experiment E6: ambiguous views are never garbage
	// collected).
	DisableRegistration bool
	// Seed seeds loss injection and any randomized behavior.
	Seed int64
	// LossRate injects per-link message loss in [0, 1).
	LossRate float64
	// TickInterval drives heartbeats (default 2ms); SuspectTimeout and
	// ProposeRetry default to 5 and 10 ticks.
	TickInterval   time.Duration
	SuspectTimeout time.Duration
	ProposeRetry   time.Duration
	// Stream, when set, records the run: every macro-step of the two
	// protocol cores (input event plus emitted effects) is encoded where it
	// is observed and spilled to the given chunked on-disk trace; recorder
	// memory is three windows and a fixed block pool at most. The caller owns
	// the stream — Close it after Cluster.Close, then check with
	// ReplayTraceStream. Works in both modes: dynamic runs replay through the
	// paper's automata, static runs through the dvscore.StaticNode baseline
	// (with the static invariant suite in place of 5.x/4.x); one stream holds
	// one run, so a dynamic and a static run need separate streams.
	Stream *TraceStream
	// Online runs the conformance check in-process on every node: a trace
	// stream with no directory, whose writer goroutine replays each window of
	// macro-steps through the cores as the run cuts it — every step, off the
	// event loop, in either mode — and the tail at Cluster.Close. Read the
	// counters with Process.CheckStats.
	Online bool
}

// TraceLog is the decoded protocol trace of one node: the core construction
// parameters plus every macro-step of its layers (VS-TO-DVS and DVS-TO-TO
// for a stack, multicast for a cross-group coordinator), in execution
// order. See ReadTrace and internal/conform.
type TraceLog = conform.NodeLog

// ConformanceReport is the outcome of replaying trace logs through the
// protocol cores: per-step divergences plus invariant violations on the
// reconstructed final cut.
type ConformanceReport = conform.Report

// ReplayTrace re-executes decoded node traces through the machine-checked
// protocol cores as one window and evaluates the paper's invariants
// (4.1–4.2, 5.1–5.6, 6.1–6.3, confirmed-prefix agreement; the multicast
// safety suite for coordinator logs) over the reconstructed final cut. The
// logs must come from a stream closed after all nodes stopped; logs that do
// not cover every process of the run get the per-step and per-node checks
// only (ConformanceReport.Partial).
func ReplayTrace(logs []TraceLog) *ConformanceReport { return conform.Replay(logs) }

// ReadTrace decodes a trace directory written by a TraceStream into one
// TraceLog per node, in process-id order — the struct view of a trace, for
// inspecting or tampering with records before ReplayTrace. Checking a trace
// needs no decoding into memory: use ReplayTraceStream.
func ReadTrace(dir string) ([]TraceLog, error) { return conform.ReadStream(dir) }

// TraceStreamOptions tune the chunked on-disk trace recorder.
type TraceStreamOptions = conform.StreamOptions

// TraceStream is a chunked on-disk trace: nodes spill their macro-step
// records into rolling chunks, so recorder memory is bounded by the chunk
// window rather than the run length. Pass one to Config.Stream (or
// NodeConfig.Stream for TCP nodes), Close it after the cluster or node has
// stopped, and check the directory with ReplayTraceStream. Config.Online runs
// the same recorder without a directory: its writer replays what it cuts.
type TraceStream = conform.StreamRecorder

// NewTraceStream creates a chunked trace stream rooted at dir.
func NewTraceStream(dir string, opts TraceStreamOptions) (*TraceStream, error) {
	return conform.NewStreamRecorder(dir, opts)
}

// StreamConformanceReport is the outcome of replaying a chunked on-disk
// trace: the ConformanceReport plus chunk accounting, truncation status,
// and whether the stream was sealed by a clean Close.
type StreamConformanceReport = conform.StreamReport

// ReplayTraceStream incrementally replays a chunked trace directory written
// by a TraceStream: records are re-stepped chunk by chunk, per-node
// invariant projections run at every chunk boundary, and the full
// cross-node invariant suite runs at quiescent cuts and at the sealed end.
// Divergences and violations carry the chunk window that introduced them.
// A truncated stream (crash before Close) is checked up to its sealed
// prefix and reported as such rather than failing outright.
func ReplayTraceStream(dir string) (*StreamConformanceReport, error) {
	return conform.ReplayStream(dir)
}

// OnlineCheckStats is a snapshot of one node's in-process checker counters.
type OnlineCheckStats = conform.OnlineStats
