package conform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/staticcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// StreamReport is the outcome of replaying a chunked on-disk trace. It
// embeds the per-step and invariant findings of Report; divergences and
// violations found while replaying a chunk carry that chunk's sequence
// number in their Window field, localizing the failure to the window that
// introduced it.
type StreamReport struct {
	Report
	Chunks        int    // chunks replayed
	QuiescentCuts int    // boundaries checked with the full cross-node suite
	Sealed        bool   // footer present and consistent with the replayed chunks
	Truncated     string // non-empty when the stream ended early; the reason
	Partial       bool   // cross-node checks skipped: the header does not cover every process the replayed views name
}

// String renders a one-line summary.
func (r *StreamReport) String() string {
	s := fmt.Sprintf("%s chunks=%d quiescent_cuts=%d sealed=%v",
		r.Report.String(), r.Chunks, r.QuiescentCuts, r.Sealed)
	if r.Truncated != "" {
		s += " truncated=" + fmt.Sprintf("%q", r.Truncated)
	}
	if r.Partial {
		s += " partial=true"
	}
	return s
}

// streamNodeReplay is the replay-side state of one node: its shadow cores,
// the expected start offsets of the next chunk part, and the cross-boundary
// local-check memory. Exactly one of dvs/stat is non-nil, per the node's
// recorded filter mode; filter returns whichever drives the DVS-layer
// records.
type streamNodeReplay struct {
	meta    NodeMeta
	dvs     *dvscore.Node
	stat    *staticcore.Node
	to      *tocore.Node
	dvsNext int
	toNext  int
	local   localState
}

func (n *streamNodeReplay) filter() dvscore.Filter {
	if n.stat != nil {
		return n.stat
	}
	return n.dvs
}

// ReplayStream incrementally replays a chunked trace directory written by a
// StreamRecorder. Chunks are consumed in order; each record is re-stepped
// through the shadow cores exactly as Replay does, the per-node invariant
// projections run at every chunk boundary, and the full cross-node suite
// runs at every boundary the writer marked quiescent plus the sealed end of
// the trace.
//
// Damage is reported, not fatal: a torn or missing chunk stops the replay
// with the findings of the sealed prefix (Truncated says why, Sealed stays
// false). The only hard error is an unreadable header — without it there
// are no core parameters to replay against.
func ReplayStream(dir string) (*StreamReport, error) {
	var hdr streamHeader
	if err := readSegment(filepath.Join(dir, headerSeg), &hdr); err != nil {
		return nil, fmt.Errorf("conform: stream header: %w", err)
	}
	if hdr.Version != streamVersion {
		return nil, fmt.Errorf("conform: stream version %d, this replayer reads only version %d: re-record the trace", hdr.Version, streamVersion)
	}

	sr := &StreamReport{}
	sr.Nodes = len(hdr.Nodes)
	if len(hdr.Nodes) == 0 {
		sr.Sealed = sealedEmpty(dir, sr)
		return sr, nil
	}

	// The header is written from registration order (sorted by P); validate
	// the same well-formedness properties Replay does on its log set.
	metas := make([]NodeLog, len(hdr.Nodes))
	for i, m := range hdr.Nodes {
		metas[i] = NodeLog{P: m.P, Group: m.Group, Initial: m.Initial, Static: m.Static}
	}
	if !validateLogSet(&sr.Report, metas) {
		return sr, nil
	}

	static := hdr.Nodes[0].Static
	procs := make([]types.ProcID, 0, len(hdr.Nodes))
	byP := make(map[types.ProcID]*streamNodeReplay, len(hdr.Nodes))
	nodes := make([]*streamNodeReplay, 0, len(hdr.Nodes))
	dvsNodes := make(map[types.ProcID]*dvscore.Node, len(hdr.Nodes))
	statNodes := make(map[types.ProcID]*staticcore.Node, len(hdr.Nodes))
	toNodes := make(map[types.ProcID]*tocore.Node, len(hdr.Nodes))
	for _, m := range hdr.Nodes {
		n := &streamNodeReplay{
			meta: m,
			to:   tocore.NewNode(m.P, m.Initial, m.InP0, false),
		}
		if static {
			n.stat = newStaticReplayNode(m.P, m.Initial, m.InP0)
			statNodes[m.P] = n.stat
		} else {
			n.dvs = dvscore.NewNode(m.P, m.Initial, m.InP0)
			dvsNodes[m.P] = n.dvs
		}
		procs = append(procs, m.P)
		byP[m.P] = n
		nodes = append(nodes, n)
		toNodes[m.P] = n.to
	}
	initial := hdr.Nodes[0].Initial

	crossChecks := func(window int) {
		if static {
			// The static suite is sound over any subset of the group (see
			// checkStaticCut), so partial traces are never a concern here.
			checkStaticCut(&sr.Report, window, procs, statNodes, toNodes)
			return
		}
		if !cutCovered(procs, byP, dvsNodes) {
			sr.Partial = true
			return
		}
		checkCut(&sr.Report, window, procs, initial, dvsNodes, toNodes)
	}

chunks:
	for seq := 1; ; seq++ {
		ch, err := readChunk(filepath.Join(dir, chunkSeg(seq)))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			sr.Truncated = fmt.Sprintf("chunk %d: %v", seq, err)
			break
		}
		if ch.Seq != seq {
			sr.Truncated = fmt.Sprintf("chunk file %d declares sequence %d", seq, ch.Seq)
			break
		}
		for _, part := range ch.Parts {
			n, ok := byP[part.P]
			if !ok {
				sr.Truncated = fmt.Sprintf("chunk %d names process %s absent from the header", seq, part.P)
				break chunks
			}
			if part.DVSStart != n.dvsNext || part.TOStart != n.toNext {
				sr.Truncated = fmt.Sprintf("chunk %d: process %s records start at dvs=%d/to=%d, expected dvs=%d/to=%d — gap in the stream",
					seq, part.P, part.DVSStart, part.TOStart, n.dvsNext, n.toNext)
				break chunks
			}
			for i, rec := range part.DVS {
				stepDVSRecord(&sr.Report, seq, part.P, n.meta.GC, n.filter(), part.DVSStart+i, rec)
			}
			n.dvsNext += len(part.DVS)
			for i, rec := range part.TO {
				stepTORecord(&sr.Report, seq, part.P, n.meta.Register, n.to, part.TOStart+i, rec)
			}
			n.toNext += len(part.TO)
		}
		sr.Chunks++
		// Rolling cut: the per-node projections hold at every consistent
		// boundary; the cross-node suite additionally needs quiescence.
		for _, n := range nodes {
			checkLocal(&sr.Report, seq, n.meta.P, n.dvs, n.stat, n.to, &n.local)
		}
		if ch.Quiescent {
			sr.QuiescentCuts++
			crossChecks(seq)
		}
	}

	var ft streamFooter
	ferr := readSegment(filepath.Join(dir, footerSeg), &ft)
	switch {
	case sr.Truncated != "":
		// Already truncated mid-stream; the footer (if any) cannot seal it.
	case errors.Is(ferr, os.ErrNotExist):
		sr.Truncated = "missing footer — the recorder never closed (crash or still running)"
	case ferr != nil:
		sr.Truncated = fmt.Sprintf("footer: %v", ferr)
	case ft.Chunks != sr.Chunks:
		sr.Truncated = fmt.Sprintf("footer seals %d chunks, found %d", ft.Chunks, sr.Chunks)
	default:
		sr.Sealed = true
		for _, tot := range ft.Totals {
			n, ok := byP[tot.P]
			if !ok {
				sr.Malformed = append(sr.Malformed,
					fmt.Sprintf("footer totals name process %s absent from the header", tot.P))
				sr.Sealed = false
				continue
			}
			if n.dvsNext != tot.DVS || n.toNext != tot.TO {
				sr.Malformed = append(sr.Malformed,
					fmt.Sprintf("process %s replayed dvs=%d/to=%d steps, footer seals dvs=%d/to=%d",
						tot.P, n.dvsNext, n.toNext, tot.DVS, tot.TO))
				sr.Sealed = false
			}
		}
	}

	if sr.Sealed {
		// The sealed end is the recorder's Close cut: every node stopped, so
		// the final cut is quiescent whether or not the last chunk carried
		// the mark (Close writes no empty chunk). Window 0 = the final cut,
		// matching Replay's attribution.
		crossChecks(0)
	}
	return sr, nil
}

// sealedEmpty handles the degenerate zero-node stream: sealed iff the
// footer is present and seals zero chunks.
func sealedEmpty(dir string, sr *StreamReport) bool {
	var ft streamFooter
	if err := readSegment(filepath.Join(dir, footerSeg), &ft); err != nil {
		sr.Truncated = "missing footer — the recorder never closed (crash or still running)"
		return false
	}
	return ft.Chunks == 0
}

// cutCovered reports whether every process named by any replayed view is
// itself replayed. The cross-node formulas dereference the state of every
// view member, so a stream that records only a subset of the group (e.g. a
// single dvsnode's local trace) supports divergence replay and the local
// checks, but not the global suite.
func cutCovered(procs []types.ProcID, byP map[types.ProcID]*streamNodeReplay,
	dvsNodes map[types.ProcID]*dvscore.Node) bool {
	for _, p := range procs {
		for _, v := range dvsNodes[p].AttemptedShared() {
			for q := range v.Members {
				if _, ok := byP[q]; !ok {
					return false
				}
			}
		}
	}
	return true
}
