package lint

// DefaultAnalyzers returns the full dvslint suite configured for this
// repository, in the order diagnostics should be grouped when positions tie.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Fpcomplete(),
		Modelpure(DefaultModelpureConfig()),
		Fporder(),
		Keyequal("/internal/protocol/", "/internal/spec/"),
	}
}

// DefaultModelpureConfig scopes the determinism check to this repository's
// model packages, with the documented timing-field allowances. Every package
// listed here feeds either the model checker's seed-replay or the trace
// conformance replayer, so all of it must be free of wall clocks and
// environment reads; global randomness is banned in every package.
func DefaultModelpureConfig() ModelpureConfig {
	return ModelpureConfig{
		PurePkgs: []string{
			"repro/internal/spec",
			// The protocol cores single-source the checked automata and the
			// live runtime, and hold the checked compositions (DVS-IMPL,
			// TO-IMPL) beside them: both the explorer and the trace replayer
			// re-execute them, so determinism is load-bearing twice over.
			"repro/internal/protocol/dvscore",
			"repro/internal/protocol/tocore",
			"repro/internal/protocol/mcastcore",
			// The conformance recorder/replayer must re-derive recorded
			// effects bit-for-bit from the event stream alone.
			"repro/internal/conform",
			"repro/internal/wire", // the byte codec under conform's traces
			"repro/internal/ioa",
			"repro/internal/naive",
			// The runtime shells around the cores: thin translation layers
			// with no protocol state of their own, kept to the same
			// determinism standard so macro-steps replay exactly.
			"repro/internal/dvsg",
			"repro/internal/tob",
			"repro/internal/mcast",
			"repro/internal/member",
			"repro/internal/types",
		},
		AllowTimeFiles: []string{
			"internal/ioa/report.go",
			"internal/ioa/explore.go",
			"internal/ioa/refine.go",
			"internal/ioa/rng.go",
			// The online checker measures its own latency (it is the
			// overhead budget E13 tracks); the timing never influences what
			// is checked or how records replay.
			"internal/conform/online.go",
		},
	}
}
