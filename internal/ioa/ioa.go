// Package ioa is a small framework for executable I/O automata in the style
// of Lynch and Tuttle, as used by the DVS paper. It provides:
//
//   - explicit-state automata with enumerable locally-controlled actions,
//   - a seeded pseudo-random executor that drives automata through long
//     executions while checking invariants at every reachable state,
//   - a per-step refinement (single-valued simulation) checker that
//     mechanizes the structure of the paper's Lemma 5.8, and
//   - a trace monitor interface for forward-simulation style checks.
//
// Safety properties only; fairness and liveness are out of scope, exactly as
// in the paper.
package ioa

import (
	"fmt"
	"strconv"
)

// Kind classifies an action as input, output, or internal.
type Kind int

// Action kinds.
const (
	KindInput Kind = iota + 1
	KindOutput
	KindInternal
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindInternal:
		return "internal"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Action is a named transition with an automaton-specific parameter. Param
// must render deterministically (implement fmt.Stringer, or be a string,
// integer, or nil) so actions can be compared across automata.
type Action struct {
	Name  string
	Kind  Kind
	Param any
}

// External reports whether the action is part of the external signature
// (input or output).
func (a Action) External() bool { return a.Kind == KindInput || a.Kind == KindOutput }

// Key is a canonical identity for the action, used to match external actions
// between implementation and specification traces. The kind is deliberately
// excluded: an output of the implementation matches the same-named output of
// the specification.
func (a Action) Key() string { return a.Name + "(" + paramString(a.Param) + ")" }

// String renders the action with its kind.
func (a Action) String() string { return a.Kind.String() + " " + a.Key() }

func paramString(p any) string {
	switch v := p.(type) {
	case nil:
		return ""
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Automaton is an executable I/O automaton. Implementations are
// single-threaded value-semantics state machines: Clone must produce a fully
// independent copy, and Fingerprint must write a canonical rendering of the
// state (equal states ⇒ equal fingerprints, and for the automata in this
// repository the converse as well).
type Automaton interface {
	// Name identifies the automaton (for diagnostics).
	Name() string
	// Enabled enumerates the currently enabled locally-controlled (output
	// and internal) actions. Input actions are always enabled and are
	// supplied by an Environment.
	Enabled() []Action
	// Perform applies the transition for the action, returning an error if
	// the action is unknown or its precondition does not hold.
	Perform(a Action) error
	// Clone returns an independent deep copy.
	Clone() Automaton
	// Fingerprint writes the canonical state components into f, one
	// key=value line per component (omit default-valued components). The
	// digest is order-canonical, so writes driven by map iteration are
	// fine. Use FpOf / FingerprintString to consume it.
	Fingerprint(f *Fingerprinter)
}

// Environment supplies candidate input actions for an automaton's current
// state. Implementations may consult the automaton state (read-only) to
// produce well-typed inputs.
type Environment interface {
	Inputs(a Automaton) []Action
}

// EnvironmentFunc adapts a function to the Environment interface.
type EnvironmentFunc func(a Automaton) []Action

// Inputs implements Environment.
func (f EnvironmentFunc) Inputs(a Automaton) []Action { return f(a) }

// NoEnvironment is an Environment that supplies no inputs.
var NoEnvironment Environment = EnvironmentFunc(func(Automaton) []Action { return nil })

// Invariant is a named predicate over automaton states. Check returns nil if
// the invariant holds.
type Invariant struct {
	Name  string
	Check func(a Automaton) error
}

// StepError describes a violation found during an execution: which step,
// which action, and the state fingerprint at the point of failure.
type StepError struct {
	Step        int
	Action      Action
	Fingerprint string
	Err         error
}

// Error implements the error interface.
func (e *StepError) Error() string {
	return fmt.Sprintf("step %d (%s): %v", e.Step, e.Action, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *StepError) Unwrap() error { return e.Err }

// SortActions orders actions deterministically by name and parameter key,
// so that Enabled() results do not depend on map iteration order and seeded
// executions are reproducible. Parameter keys are rendered once per action,
// not once per comparison: paramString goes through fmt for every
// non-trivial parameter, and rebuilding it O(n²) times inside the sort was
// a measurable slice of the per-state allocation profile.
func SortActions(acts []Action) {
	if len(acts) < 2 {
		return
	}
	keys := make([]string, len(acts))
	for i := range acts {
		keys[i] = paramString(acts[i].Param)
	}
	// insertion sort, moving the cached keys in tandem; action lists are
	// short and this avoids importing sort for a comparator closure
	// allocation on the hot path.
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0; j-- {
			if acts[j].Name > acts[j-1].Name ||
				(acts[j].Name == acts[j-1].Name && keys[j] >= keys[j-1]) {
				break
			}
			acts[j], acts[j-1] = acts[j-1], acts[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
