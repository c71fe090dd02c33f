// Package core stands in for a protocol core: its path holds the default
// scope segment /internal/protocol/, so comparisons of two renderings are
// findings here.
package core

import "fmt"

type Msg interface {
	MsgKey() string
	EqualMsg(Msg) bool
}

type ID struct{ N int }

func (i ID) String() string { return fmt.Sprint(i.N) }

type From struct {
	M Msg
	Q ID
}

func (e From) key() string { return e.M.MsgKey() + "@" + e.Q.String() }

func (e From) Equal(o From) bool { return e.Q == o.Q && e.M.EqualMsg(o.M) }

func headChecks(head, e From, m Msg) bool {
	if head.M.MsgKey() != m.MsgKey() { // want `MsgKey\(\) != MsgKey\(\): equality by rendering`
		return false
	}
	if head.key() == e.key() { // want `key\(\) == key\(\)`
		return true
	}
	if (head.Q.String()) == e.Q.String() { // want `String\(\) == String\(\)`
		return true
	}
	if head.M.MsgKey() == (e.key()) { // want `MsgKey\(\) == key\(\)`
		return true
	}
	return head.Equal(e)
}

// Renderings stay legal for what they are for: text, and comparison with a
// constant (a test of the rendering, not of two messages).
func rendering(head From, m Msg) string {
	if m.MsgKey() == "registered" {
		return "r"
	}
	k := m.MsgKey()
	if k != head.M.MsgKey() {
		return k
	}
	return fmt.Sprintf("%s from %s", m.MsgKey(), head.Q.String())
}

// key is a plain function here, not a method: not a rendering of a value.
func key() string { return "" }

func plainFuncs() bool { return key() == key() }
