// Package shell is outside the core scope: specifications and shells may
// still compare keys (the spec automata do), so nothing is reported.
package shell

type Msg interface{ MsgKey() string }

func same(a, b Msg) bool { return a.MsgKey() == b.MsgKey() }
