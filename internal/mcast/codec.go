package mcast

import (
	"strings"

	"repro/internal/protocol/mcastcore"
	"repro/internal/types"
	"repro/internal/wire"
)

// The multicast coordinator's control traffic (message data and timestamp
// proposals) travels through the per-group total orders as ordinary client
// payloads, marked by a reserved prefix and a kind byte. The fields behind
// them are package wire's encoding — data: id, origin, dests, payload;
// proposal: pgroup, id, ts — so arbitrary application payloads round-trip.
// Application payloads beginning with the magic byte sequence are reserved;
// submit them through the multicast path, never through a raw group
// broadcast.

// magic marks a control payload. The NUL byte keeps it out of the way of
// ordinary textual payloads.
const magic = "\x00mc"

const (
	kindData byte = 'D'
	kindProp byte = 'P'
)

// control starts a control payload of the given kind, with room for about
// size bytes of fields.
func control(kind byte, size int) []byte {
	return append(append(make([]byte, 0, len(magic)+1+size), magic...), kind)
}

func encodeData(id string, origin types.ProcID, dests []types.GroupID, payload string) string {
	return string(wire.AppendMcData(control(kindData, 16+len(id)+len(payload)), id, origin, dests, payload))
}

func encodeProp(pg types.GroupID, id string, ts uint64) string {
	return string(wire.AppendMcProp(control(kindProp, 16+len(id)), pg, id, ts))
}

// isControl reports whether a delivered payload is coordinator control
// traffic.
func isControl(s string) bool { return strings.HasPrefix(s, magic) }

// decode parses a control payload delivered in group g into the core event
// it stands for; ok is false for anything malformed (dropped and counted).
// Ids and payloads are substrings of s, which the TO history holds anyway.
func decode(g types.GroupID, s string) (ev mcastcore.Event, ok bool) {
	if !isControl(s) || len(s) <= len(magic) {
		return nil, false
	}
	body := s[len(magic)+1:]
	r := wire.Reader{B: []byte(body)}
	str := func() string {
		n := len(r.Take())
		end := len(body) - len(r.B)
		return body[end-n : end]
	}
	switch s[len(magic)] {
	case kindData:
		ev = mcastcore.EvData{Group: g, ID: str(), Origin: r.Proc(), Dests: r.Groups(), Payload: str()}
	case kindProp:
		ev = mcastcore.EvProposal{Group: g, PGroup: r.Group(), ID: str(), TS: r.Uvarint()}
	default:
		return nil, false
	}
	return ev, r.Finish("control payload") == nil
}
