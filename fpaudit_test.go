package dvs_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/ioa"
)

// fieldCoverage records, for every field of every struct type reachable
// from an audited state, whether it was non-zero in some state: a field the
// audit only ever sees at its zero value is one it cannot vouch for.
type fieldCoverage struct {
	mu      sync.Mutex
	nonzero map[coveredField]bool
}

type coveredField struct {
	t reflect.Type
	i int
}

func (f coveredField) String() string { return f.t.String() + "." + f.t.Field(f.i).Name }

func (c *fieldCoverage) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			key := coveredField{v.Type(), i}
			switch f.Kind() {
			case reflect.Map, reflect.Slice:
				c.nonzero[key] = c.nonzero[key] || f.Len() > 0
			default:
				c.nonzero[key] = c.nonzero[key] || !f.IsZero()
			}
			c.walk(f)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			c.walk(it.Key())
			c.walk(it.Value())
		}
	}
}

// neverNonZero lists the fields no audited state sets, each with the reason
// the cases below cannot or need not reach it.
var neverNonZero = map[string]string{
	"mcastcore.System.breakHeadWait": "a seeded fault only mcastcore's own invariant-teeth test sets",
	"tocore.Node.mismatch":           "counts exchanges a node could not align with its representative, which no correct run has",
	"tocore.run.sparse":              "needs a label ahead of a lower seqno of its run; VS delivers each run in order and merge feeds a summary in label order, so no scenario here has a gap (FuzzHistory drives it)",
	"tocore.run.safeSparse":          "the safe marks of such a gap, likewise",
}

// TestFingerprintAudit explores every space of the table once, with
// AuditFingerprints, and holds each pinned one to its counts: a change to
// how states are stored, cloned, permuted or fingerprinted must leave them
// where they are. Each state is rendered by reflection, and the
// exploration fails if the fingerprint drops, merges or mis-orders state, if
// a clone differs from or shares storage with its original, if a queued
// state changes after admission, or if the permuting copier loses state. A field every
// audited state leaves at zero is a field the audit never saw: it must be
// listed in neverNonZero with its reason.
func TestFingerprintAudit(t *testing.T) {
	cov := &fieldCoverage{nonzero: make(map[coveredField]bool)}
	ran, audited := 0, 0
	for _, tc := range spaces() {
		if tc.deep != nil {
			continue
		}
		audited++
		t.Run(tc.name, func(t *testing.T) {
			ran++
			cfg := tc.cfg
			cfg.AuditFingerprints = true
			cfg.Invariants = []ioa.Invariant{{Name: "field coverage", Check: func(a ioa.Automaton) error {
				cov.mu.Lock()
				defer cov.mu.Unlock()
				cov.walk(reflect.ValueOf(a))
				return nil
			}}}
			res, err := ioa.Explore(tc.a, tc.env, cfg)
			if err != nil {
				t.Fatalf("after %d states / %d edges: %v", res.States, res.Edges, err)
			}
			if res.States < 50 {
				t.Errorf("audit covered suspiciously few states: %d", res.States)
			}
			got := counts{res.States, res.Edges, res.MaxDepth}
			explored.Store(tc.name, got)
			got.check(t, tc.pin)
			t.Logf("audited %d states, %d edges, depth %d, truncated=%v",
				res.States, res.Edges, res.MaxDepth, res.Truncated)
		})
	}
	if ran < audited {
		return // the coverage gate holds over every case, not a -run selection
	}
	var zero []string
	for key, seen := range cov.nonzero {
		field := key.String()
		if _, listed := neverNonZero[field]; !seen && !listed {
			zero = append(zero, field)
		}
		if seen && neverNonZero[field] != "" {
			t.Errorf("%s is listed as never set, but an audited state sets it: drop it from neverNonZero", field)
		}
	}
	sort.Strings(zero)
	for _, field := range zero {
		t.Errorf("no audited state sets %s: reach it in a case above, or list it in neverNonZero with the reason", field)
	}
}
