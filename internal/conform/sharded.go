package conform

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/types"
)

// A sharded run's trace is a directory of independent stream traces, all in
// the format of stream.go:
//
//	group-00/  group-01/  ...   one per group, each group-homogeneous: the
//	                            DVS and TO layers of every process's stack
//	mcast/                      the multicast layer of every process's
//	                            cross-group coordinator
//
// Each stream is complete in itself — a group's replay needs nothing outside
// its own subdirectory, and neither does the multicast suite — so sharding
// composes with the stream machinery instead of widening it, and the
// multicast log is as bounded in memory and as crash-safe as the rest.

// GroupDir returns the stream-trace subdirectory for group g under a
// sharded trace root.
func GroupDir(root string, g types.GroupID) string {
	return filepath.Join(root, fmt.Sprintf("group-%02d", int(g)))
}

// McastDir returns the multicast stream-trace subdirectory under a sharded
// trace root.
func McastDir(root string) string { return filepath.Join(root, mcastDirName) }

const mcastDirName = "mcast"

// ShardedReport aggregates the stream replays of one sharded trace.
type ShardedReport struct {
	Groups map[types.GroupID]*StreamReport
	Mcast  *StreamReport // nil when the trace has no multicast stream
}

// each visits the artifacts in report order: groups ascending, then the
// multicast stream. visit returning false stops the walk.
func (r *ShardedReport) each(visit func(name string, sr *StreamReport) bool) {
	gs := make([]types.GroupID, 0, len(r.Groups))
	for g := range r.Groups {
		gs = append(gs, g)
	}
	types.SortGroups(gs)
	for _, g := range gs {
		if !visit("group "+g.String(), r.Groups[g]) {
			return
		}
	}
	if r.Mcast != nil {
		visit("mcast", r.Mcast)
	}
}

// OK reports whether every stream replayed sealed and clean.
func (r *ShardedReport) OK() bool { return r.Err() == nil }

// Err returns nil when OK, else an error naming the first failing artifact.
func (r *ShardedReport) Err() (err error) {
	r.each(func(name string, sr *StreamReport) bool {
		if e := sr.Report.Err(); e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		} else if !sr.Sealed {
			err = fmt.Errorf("%s: trace not sealed: %s", name, sr.Truncated)
		}
		return err == nil
	})
	return err
}

// String renders a multi-line summary, one line per artifact.
func (r *ShardedReport) String() string {
	var b strings.Builder
	r.each(func(name string, sr *StreamReport) bool {
		fmt.Fprintf(&b, "%s: %s\n", name, sr)
		return true
	})
	return strings.TrimRight(b.String(), "\n")
}

// ReplaySharded replays every stream of a sharded trace directory through
// ReplayStream: each group-NN subdirectory and, if present, mcast/. The only
// hard errors are an unreadable root or a stream whose header is unreadable;
// everything else is reported.
func ReplaySharded(root string) (*ShardedReport, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReport{Groups: make(map[types.GroupID]*StreamReport)}
	for _, e := range entries {
		name := e.Name()
		g, err := strconv.Atoi(strings.TrimPrefix(name, "group-"))
		isGroup := strings.HasPrefix(name, "group-") && err == nil
		if !e.IsDir() || !isGroup && name != mcastDirName {
			continue
		}
		sr, err := ReplayStream(filepath.Join(root, name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if isGroup {
			rep.Groups[types.GroupID(g)] = sr
		} else {
			rep.Mcast = sr
		}
	}
	return rep, nil
}
