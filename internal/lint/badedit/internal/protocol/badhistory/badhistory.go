// Package badhistory is the TO core's history (tocore history.go) after the
// edit clonecomplete must catch: run.Clone copying the payloads but
// forgetting the safe frontier, so every state the checker clones starts
// with an empty safe set. The analyzers reach run, a type no Node field
// names, because it carries the checked method name itself; this fixture
// pins that they keep doing so.
package badhistory

type history map[int]*run

type run struct {
	dense  []string
	safeTo int
}

// Clone copies every run.
func (h history) Clone() history {
	out := make(history, len(h))
	for k, r := range h {
		out[k] = r.Clone()
	}
	return out
}

// Clone forgets safeTo.
func (r *run) Clone() *run { return &run{dense: append([]string(nil), r.dense...)} }
