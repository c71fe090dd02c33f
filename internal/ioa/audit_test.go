package ioa

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// auditToy is a small Symmetric automaton: four processes step in turn (at
// most three steps, each logged and counted) and a flag flips. Its Perform,
// Clone and FixImage each take one seeded bad edit, named by edit, that
// AuditFingerprints must reject.
type auditToy struct {
	flip  bool
	log   []toyID
	seen  map[toyID]int
	edit  string
	flips int `ioa:"shared"` // counted only by the bad edit, which FpOf cannot see
}

type toyID int

// toySyms are the identity and the swap of processes 0 and 1.
var toySyms = []map[toyID]toyID{nil, {0: 1, 1: 0}}

func (t *auditToy) Name() string { return "auditToy" }

func (t *auditToy) Enabled() []Action {
	acts := []Action{{Name: "flip", Kind: KindInternal}}
	for p := 0; p < 4 && len(t.log) < 3; p++ {
		acts = append(acts, Action{Name: "step", Kind: KindInternal, Param: p})
	}
	return acts
}

func (t *auditToy) Perform(a Action) error {
	if a.Name == "flip" {
		t.flip = !t.flip
		if t.edit == "a shared field differs" {
			t.flips++
		}
		return nil
	}
	p := toyID(a.Param.(int))
	t.log = append(t.log, p)
	if t.seen == nil {
		t.seen = make(map[toyID]int)
	}
	t.seen[p]++
	return nil
}

func (t *auditToy) Clone() Automaton {
	c := &auditToy{flip: t.flip, log: slices.Clone(t.log), seen: maps.Clone(t.seen), edit: t.edit, flips: t.flips}
	switch t.edit {
	case "clone forgets a field":
		c.flip = false
	case "clone shares a slice":
		c.log = t.log
	}
	return c
}

func (t *auditToy) FixImage(any) {
	if t.edit == "an image forgets a field" {
		t.flip = false
	}
}

func (t *auditToy) Canonicalize() (Automaton, Fp) { return Canonicalize(t, toySyms) }
func (t *auditToy) Orbit() []Automaton            { return Orbit(t, toySyms) }

// TestAuditCatchesSeededEdits: the correct toy passes AuditFingerprints,
// and each seeded edit to its Perform, Clone or FixImage is rejected with the
// check that names it. Without the audit every edit explores clean. A
// shared field that differs between two states is the one state FpOf skips
// by design, so only the audit's rendering can see it.
func TestAuditCatchesSeededEdits(t *testing.T) {
	if _, err := Explore(&auditToy{}, nil, ExploreConfig{AuditFingerprints: true}); err != nil {
		t.Fatalf("the correct automaton fails the audit: %v", err)
	}
	for edit, want := range map[string]string{
		"a shared field differs":   "covers two distinct states",
		"clone forgets a field":    "clone differs from its original",
		"clone shares a slice":     "clone shares *ioa.auditToy.log",
		"an image forgets a field": "no member of the orbit",
	} {
		if _, err := Explore(&auditToy{edit: edit}, nil, ExploreConfig{}); err != nil {
			t.Errorf("%s: the exploration without the audit failed: %v", edit, err)
		}
		_, err := Explore(&auditToy{edit: edit}, nil, ExploreConfig{AuditFingerprints: true})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want an audit failure containing %q, got %v", edit, want, err)
		}
	}
}
