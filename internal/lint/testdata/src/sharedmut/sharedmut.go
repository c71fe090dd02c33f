// Package sharedmut holds golden cases for the sharedmut analyzer.
package sharedmut

import "sort"

// State mimics an automaton node with zero-clone accessors.
type State struct {
	items map[string]int
	list  []int
}

// ItemsShared returns the live map without cloning.
func (s *State) ItemsShared() map[string]int { return s.items }

// ListShared returns the live slice without cloning.
func (s *State) ListShared() []int { return s.list }

// Items returns a defensive copy; writes through it are fine.
func (s *State) Items() map[string]int {
	m := make(map[string]int, len(s.items))
	for k, v := range s.items {
		m[k] = v
	}
	return m
}

// ReadOnly only reads through shared views: clean.
func ReadOnly(s *State) int {
	total := 0
	for _, v := range s.ItemsShared() {
		total += v
	}
	for _, v := range s.ListShared() {
		total += v
	}
	return total
}

// DirectWrite assigns through the call result itself.
func DirectWrite(s *State) {
	s.ItemsShared()["x"] = 1 // want "write through zero-clone Shared view"
}

// ViaLocal writes through a variable holding the view.
func ViaLocal(s *State) {
	m := s.ItemsShared()
	m["x"] = 1     // want "write through zero-clone Shared view"
	delete(m, "y") // want "delete through zero-clone Shared view"
}

// ViaCopyChain tracks aliases through copies and reslices.
func ViaCopyChain(s *State) {
	xs := s.ListShared()
	tail := xs[1:]
	tail[0] = 7 // want "write through zero-clone Shared view"
}

// AppendInPlace may scribble on the shared backing array.
func AppendInPlace(s *State) []int {
	xs := s.ListShared()
	return append(xs, 9) // want "append through zero-clone Shared view"
}

// SortsShared reorders the live backing array.
func SortsShared(s *State) {
	xs := s.ListShared()
	sort.Ints(xs) // want "in-place sort through zero-clone Shared view"
}

// Bump increments an element in place.
func Bump(s *State) {
	s.ListShared()[0]++ // want "increment through zero-clone Shared view"
}

// MutateCopy writes through the cloning accessor: clean.
func MutateCopy(s *State) {
	m := s.Items()
	m["x"] = 1
}

// Rebuild deliberately mutates in place under an escape.
func Rebuild(s *State) {
	m := s.ItemsShared()
	//lint:sharedwrite single-owner reset path, no frontier aliases exist yet
	m["x"] = 1
}
