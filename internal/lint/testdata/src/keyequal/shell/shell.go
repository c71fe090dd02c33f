// Package shell is outside both scope segments: a shell or a test helper
// may still compare keys, so nothing is reported.
package shell

type Msg interface{ MsgKey() string }

func same(a, b Msg) bool { return a.MsgKey() == b.MsgKey() }
