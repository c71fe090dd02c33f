package ioa

// Symmetric is implemented by automata that support symmetry reduction over
// process identities. The symmetry group is chosen by the automaton —
// typically the permutations of its process universe that fix the initial
// state — and must satisfy the usual group laws (closure under composition
// and inverse, identity included).
//
// Soundness of exploring representatives instead of states requires the
// whole checked system to be equivariant under the group: for every group
// element π and every step s --act--> s', π(s) --π(act)--> π(s') must also
// be a step (of the automaton AND of the environment's input enumeration),
// and every invariant must hold on s iff it holds on π(s). Under those
// conditions every reachable state has a reachable representative, so
// checking the quotient checks the full space. ExploreConfig.AuditSymmetry
// machine-checks the representative function; equivariance is a property of
// the model and environment, argued in DESIGN.md §6.7. An automaton
// implements both methods with Canonicalize and Orbit below, whose images
// the permuting copier (Permute) derives from the state's type.
type Symmetric interface {
	Automaton
	// Canonicalize returns the canonical representative of the receiver's
	// orbit and its fingerprint: a pure function of the state with
	// Canonicalize(π(s)) equal (by fingerprint) to Canonicalize(s) for every
	// group element π. The receiver must not be mutated; the result may be
	// the receiver itself when it is already canonical.
	Canonicalize() (Automaton, Fp)
	// Orbit returns the receiver's full orbit under the symmetry group,
	// including (an equal copy of) the receiver itself. Used by
	// AuditSymmetry; need not be allocation-free.
	Orbit() []Automaton
}

// Stabilizer returns, in order, the elements of perms that fix a by
// fingerprint: the symmetry group an automaton installs for Canonicalize
// and Orbit. Call it on the initial state, before exploration: the
// stabilizer of the initial state is exactly the set of permutations under
// which every reachable orbit has a reachable representative (assuming
// equivariant transitions, invariants, and environment — see DESIGN.md
// §6.7). perms must enumerate the identity first, so that it is the
// stabilizer's first element too.
func Stabilizer[A Automaton, P ~map[K]K, K comparable](a A, perms []P) []P {
	self := FpOf(a)
	var syms []P
	for i, b := range images(a, perms) {
		if FpOf(b) == self {
			syms = append(syms, perms[i])
		}
	}
	return syms
}

// Canonicalize is Symmetric.Canonicalize over an installed group: the orbit
// member with the least fingerprint, and that fingerprint. With no group
// installed (or the trivial group) a is its own representative.
func Canonicalize[A Automaton, P ~map[K]K, K comparable](a A, syms []P) (Automaton, Fp) {
	var best Automaton = a
	bestFp := FpOf(a)
	for _, cand := range images(a, syms[min(1, len(syms)):]) { // syms[0] is the identity
		if fp := FpOf(cand); fp.Less(bestFp) {
			best, bestFp = cand, fp
		}
	}
	return best, bestFp
}

// Orbit is Symmetric.Orbit over an installed group: the image of a under
// every element, which with no group installed is a copy of a alone.
func Orbit[A Automaton, P ~map[K]K, K comparable](a A, syms []P) []Automaton {
	if len(syms) == 0 {
		syms = make([]P, 1) // identity only
	}
	out := make([]Automaton, 0, len(syms))
	for _, b := range images(a, syms) {
		out = append(out, b)
	}
	return out
}
