package vsg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/types"
)

// history records, per node, everything the vsg layer reported, keyed by
// the view in which it was reported — the raw material for checking the VS
// trace properties of Figure 1 against the runtime implementation.
type history struct {
	mu    sync.Mutex
	view  types.ViewID
	hasV  bool
	recvs map[types.ViewID][]string
	safes map[types.ViewID][]string
	views []types.View
}

func newHistory() *history {
	return &history{
		recvs: make(map[types.ViewID][]string),
		safes: make(map[types.ViewID][]string),
	}
}

func (h *history) OnNewView(v types.View) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.view, h.hasV = v.ID, true
	h.views = append(h.views, v)
}

func (h *history) OnRecv(p any, from types.ProcID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hasV {
		h.recvs[h.view] = append(h.recvs[h.view], fmt.Sprint(p))
	}
}

func (h *history) OnSafe(p any, from types.ProcID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hasV {
		h.safes[h.view] = append(h.safes[h.view], fmt.Sprint(p))
	}
}

// TestVSGViewSynchronyProperties drives a 4-node group through randomized
// partitions, merges and sends, then checks the VS guarantees on the
// recorded histories:
//
//  1. per view, the delivery sequences of all nodes are prefix-consistent
//     (same total order, possibly shorter prefixes);
//  2. per node and view, the safe sequence is a prefix of the delivery
//     sequence (safety indications follow delivery);
//  3. a message safe anywhere in view g was delivered to every member of g;
//  4. per node, view identifiers are strictly increasing.
func TestVSGViewSynchronyProperties(t *testing.T) {
	const n = 4
	universe := types.RangeProcSet(n)
	v0 := types.InitialView(universe)
	fab := netfab.NewFabric(universe, netfab.Config{})
	hists := make([]*history, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		hists[i] = newHistory()
		nodes[i] = NewNode(Config{Self: types.ProcID(i), Universe: universe, Initial: v0, Transport: fab})
		nodes[i].SetHandler(hists[i])
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	rng := rand.New(rand.NewSource(99))
	msg := 0
	for round := 0; round < 15; round++ {
		switch rng.Intn(4) {
		case 0:
			fab.Heal()
		case 1:
			k := 1 + rng.Intn(n/2)
			perm := rng.Perm(n)
			var a, b []types.ProcID
			for i, p := range perm {
				if i < k {
					a = append(a, types.ProcID(p))
				} else {
					b = append(b, types.ProcID(p))
				}
			}
			fab.Partition(a, b)
		default:
			// keep topology; just traffic
		}
		for s := 0; s < 3; s++ {
			i := rng.Intn(n)
			payload := fmt.Sprintf("m%d", msg)
			msg++
			nodes[i].Do(func() { nodes[i].SendInLoop(payload) })
		}
		time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
	}
	fab.Heal()
	time.Sleep(300 * time.Millisecond)

	// Collect all views seen anywhere, with membership.
	members := make(map[types.ViewID]types.ProcSet)
	for _, h := range hists {
		h.mu.Lock()
		for _, v := range h.views {
			members[v.ID] = v.Members
		}
		h.mu.Unlock()
	}
	members[v0.ID] = v0.Members

	// Property 4: per-node monotone views.
	for i, h := range hists {
		h.mu.Lock()
		for k := 1; k < len(h.views); k++ {
			if !h.views[k-1].ID.Less(h.views[k].ID) {
				t.Errorf("node %d: non-monotone views %s, %s", i, h.views[k-1].ID, h.views[k].ID)
			}
		}
		h.mu.Unlock()
	}

	for g := range members {
		// Property 1: prefix-consistent per-view delivery.
		var seqs [][]string
		for _, h := range hists {
			h.mu.Lock()
			seqs = append(seqs, append([]string(nil), h.recvs[g]...))
			h.mu.Unlock()
		}
		for i := range seqs {
			for j := i + 1; j < len(seqs); j++ {
				a, b := seqs[i], seqs[j]
				limit := len(a)
				if len(b) < limit {
					limit = len(b)
				}
				for k := 0; k < limit; k++ {
					if a[k] != b[k] {
						t.Fatalf("view %s: nodes %d and %d diverge at %d: %q vs %q", g, i, j, k, a[k], b[k])
					}
				}
			}
		}
		// Property 2: safe is a prefix of recv per node.
		for i, h := range hists {
			h.mu.Lock()
			safes := append([]string(nil), h.safes[g]...)
			recvs := append([]string(nil), h.recvs[g]...)
			h.mu.Unlock()
			if len(safes) > len(recvs) {
				t.Fatalf("view %s node %d: more safes (%d) than recvs (%d)", g, i, len(safes), len(recvs))
			}
			for k := range safes {
				if safes[k] != recvs[k] {
					t.Fatalf("view %s node %d: safe[%d]=%q but recv[%d]=%q", g, i, k, safes[k], k, recvs[k])
				}
			}
		}
		// Property 3: anything safe anywhere was delivered at every member.
		for i, h := range hists {
			h.mu.Lock()
			safes := append([]string(nil), h.safes[g]...)
			h.mu.Unlock()
			for _, m := range safes {
				for r := members[g].First(); r >= 0; r = members[g].Next(r) {
					found := false
					hr := hists[int(r)]
					hr.mu.Lock()
					for _, x := range hr.recvs[g] {
						if x == m {
							found = true
							break
						}
					}
					hr.mu.Unlock()
					if !found {
						t.Fatalf("view %s: %q safe at node %d but not delivered at member %d", g, m, i, r)
					}
				}
			}
		}
	}
}
