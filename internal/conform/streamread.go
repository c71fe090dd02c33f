package conform

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

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
}

// String renders a one-line summary.
func (r *StreamReport) String() string {
	s := fmt.Sprintf("%s chunks=%d quiescent_cuts=%d sealed=%v",
		r.Report.String(), r.Chunks, r.QuiescentCuts, r.Sealed)
	if r.Truncated != "" {
		s += " truncated=" + fmt.Sprintf("%q", r.Truncated)
	}
	return s
}

// streamReader reads a trace directory front to back and owns the checks
// that need nothing but the bytes: framing, version, chunk sequence, known
// processes, gap-free offsets, and the footer's seal.
type streamReader struct {
	dir    string
	nodes  []NodeMeta                       // the header: sorted by P
	chunks int                              // chunks read so far
	next   map[types.ProcID]*[numLayers]int // offsets each node's next part must start at
}

// openStream reads the header. An unreadable or foreign-version header is
// the only hard error of a trace: without it there are no core parameters to
// replay against.
func openStream(dir string) (*streamReader, error) {
	nodes, err := readSegment(filepath.Join(dir, headerSeg), decodeHeader)
	if err != nil {
		return nil, fmt.Errorf("conform: stream header: %w", err)
	}
	s := &streamReader{dir: dir, nodes: nodes, next: make(map[types.ProcID]*[numLayers]int, len(nodes))}
	for _, m := range nodes {
		s.next[m.P] = new([numLayers]int)
	}
	return s, nil
}

// chunk returns the next chunk, io.EOF after the last one on disk, or the
// reason the stream cannot be read further.
func (s *streamReader) chunk() (streamChunk, error) {
	seq := s.chunks + 1
	ch, err := readSegment(filepath.Join(s.dir, chunkSeg(seq)), decodeChunk)
	if errors.Is(err, os.ErrNotExist) {
		return ch, io.EOF
	}
	if err != nil {
		return ch, fmt.Errorf("chunk %d: %v", seq, err)
	}
	if ch.Seq != seq {
		return ch, fmt.Errorf("chunk file %d declares sequence %d", seq, ch.Seq)
	}
	for i := range ch.Parts {
		part := &ch.Parts[i]
		next, ok := s.next[part.P]
		if !ok {
			return ch, fmt.Errorf("chunk %d names process %s absent from the header", seq, part.P)
		}
		if part.Start != *next {
			return ch, fmt.Errorf("chunk %d: process %s records start at dvs/to/mcast=%v, expected %v — gap in the stream",
				seq, part.P, part.Start, *next)
		}
		for l, n := range part.counts() {
			next[l] += n
		}
	}
	s.chunks = seq
	return ch, nil
}

// seal checks the footer against what was read and reports the outcome into
// sr: Sealed, or why not (Truncated), or footer totals that contradict the
// chunks (Malformed).
func (s *streamReader) seal(sr *StreamReport) {
	ft, err := readSegment(filepath.Join(s.dir, footerSeg), decodeFooter)
	switch {
	case errors.Is(err, os.ErrNotExist):
		sr.Truncated = "missing footer — the recorder never closed (crash or still running)"
		return
	case err != nil:
		sr.Truncated = fmt.Sprintf("footer: %v", err)
		return
	case ft.Chunks != s.chunks:
		sr.Truncated = fmt.Sprintf("footer seals %d chunks, found %d", ft.Chunks, s.chunks)
		return
	}
	sr.Sealed = true
	for _, tot := range ft.Totals {
		if next, ok := s.next[tot.P]; !ok {
			sr.Malformed = append(sr.Malformed, fmt.Sprintf("footer totals name process %s absent from the header", tot.P))
			sr.Sealed = false
		} else if *next != tot.Steps {
			sr.Malformed = append(sr.Malformed, fmt.Sprintf("process %s replayed dvs/to/mcast=%v steps, footer seals %v",
				tot.P, *next, tot.Steps))
			sr.Sealed = false
		}
	}
}

// ReplayStream incrementally replays a chunked trace directory written by a
// StreamRecorder. Chunks are consumed in order, each one a window of the
// replay engine: every record is re-stepped through the shadow cores, the
// per-node invariant projections run at every chunk boundary, and the full
// cross-node suite runs at every boundary the writer marked quiescent plus
// the sealed end of the trace.
//
// Damage is reported, not fatal: a torn or missing chunk stops the replay
// with the findings of the sealed prefix (Truncated says why, Sealed stays
// false). The only hard error is an unreadable header.
func ReplayStream(dir string) (*StreamReport, error) {
	s, err := openStream(dir)
	if err != nil {
		return nil, err
	}
	sr := &StreamReport{}
	e := newReplayer(&sr.Report, s.nodes)
	if e == nil {
		return sr, nil
	}
	for {
		ch, err := s.chunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			sr.Truncated = err.Error()
			break
		}
		e.window(ch)
		sr.Chunks++
		if ch.Quiescent {
			sr.QuiescentCuts++
		}
	}
	if sr.Truncated == "" { // else the footer, if any, cannot seal the trace
		s.seal(sr)
	}
	// The sealed end is the recorder's Close cut: every node stopped, so the
	// final cut is quiescent whether or not the last chunk carried the mark
	// (Close writes no empty chunk).
	e.end(sr.Sealed)
	return sr, nil
}

// ReadStream decodes a trace directory into one NodeLog per registered node,
// in process-id order: the struct view of a trace, for inspecting or
// tampering with records before handing them to Replay. It reads what
// ReplayStream would replay, and fails where that would report truncation
// mid-stream; it does not require the footer.
func ReadStream(dir string) ([]NodeLog, error) {
	s, err := openStream(dir)
	if err != nil {
		return nil, err
	}
	logs := make([]NodeLog, len(s.nodes))
	byP := make(map[types.ProcID]*NodeLog, len(logs))
	for i, m := range s.nodes {
		logs[i].NodeMeta = m
		byP[m.P] = &logs[i]
	}
	for {
		ch, err := s.chunk()
		if err == io.EOF {
			return logs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("conform: %s: %w", dir, err)
		}
		for _, part := range ch.Parts {
			lg := byP[part.P]
			lg.DVS = append(lg.DVS, part.DVS...)
			lg.TO = append(lg.TO, part.TO...)
			lg.Mcast = append(lg.Mcast, part.Mcast...)
		}
	}
}
