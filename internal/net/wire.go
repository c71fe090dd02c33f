package net

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/types"
	"repro/internal/wire"
)

// The TCP wire format. A connection opens with a preamble — wireHead (magic
// and format version), then the sender's id as a varint — and carries frames:
// a uvarint length (at most MaxFrame) and that many bytes, one payload. A
// payload is a message of the types.Msg union as package wire encodes it, or
// a registered WirePayload: its tag byte, then its fields, nested payloads
// encoded the same way. Tag table in DESIGN.md §6.6, "Framing".
const (
	wireHead = "DVSG\x01"

	// MaxFrame bounds a frame's length: 1 GiB holds the largest payload, a
	// SummaryMsg of a whole history (≈ 90 B per message), past ten million.
	MaxFrame     = 1 << 30
	maxLenPrefix = binary.MaxVarintLen32 // MaxFrame's own uvarint

	// firstPayloadTag starts the registered payloads' tag range; the lower
	// ranges are package wire's and the trace codec's.
	firstPayloadTag = 0x80
	// maxPayloadDepth bounds payload nesting, on both sides of the codec; the
	// stack nests three deep (GroupFrame, Data, WireBatch) above the union.
	maxPayloadDepth = 4
)

// WirePayload is what a payload type implements to cross the TCP transport,
// beside being registered with RegisterWireType. The methods mention only
// package wire, so an implementer need not import this package.
type WirePayload interface {
	// WireTag is the type's tag byte: 0x80 or above, one per type.
	WireTag() byte
	// AppendWire appends the value's fields (the tag is already written); a
	// nested payload goes through AppendPayload with the depth given.
	AppendWire(b []byte, depth int) ([]byte, error)
	// ReadWire decodes those fields into a new value of the receiver's type
	// (the receiver is the registered value; ignore it); a nested payload
	// comes from ReadPayload with the depth given. Errors stick to the
	// reader, and every count must go through Reader.Count.
	ReadWire(r *wire.Reader, depth int) any
}

// wireTypes maps tag → registered value. It is filled at start-up, before
// any transport runs, and only read afterwards; wireMu orders the writers.
var (
	wireMu    sync.Mutex
	wireTypes [256]WirePayload
)

// RegisterWireType makes v's type decodable from the TCP transport. The stack
// registers its own payloads; an application embedding a custom one registers
// it before starting its first node. A message of the types.Msg union is known
// already; registering a type twice is harmless. It panics — at start-up, not
// on the wire — on a value that is neither, or whose tag is taken or below 0x80.
func RegisterWireType(v any) {
	p, ok := v.(WirePayload)
	if !ok {
		m, _ := v.(types.Msg) // nil unless v is a message, and AppendMsg refuses nil
		if _, err := wire.AppendMsg(nil, m, 0); err != nil {
			panic(fmt.Sprintf("net: RegisterWireType(%T): neither a WirePayload nor a message of the wire union", v))
		}
		return
	}
	tag := p.WireTag()
	wireMu.Lock()
	defer wireMu.Unlock()
	switch prev := wireTypes[tag]; {
	case tag < firstPayloadTag:
		panic(fmt.Sprintf("net: RegisterWireType(%T): tag %#x is below %#x", v, tag, firstPayloadTag))
	case prev == nil:
		wireTypes[tag] = p
	case reflect.TypeOf(prev) != reflect.TypeOf(v):
		panic(fmt.Sprintf("net: RegisterWireType(%T): tag %#x belongs to %T", v, tag, prev))
	}
}

// AppendPayload appends one payload: a registered WirePayload as its tag and
// fields, a message of the union as package wire encodes it. Anything else is
// an error, which costs the TCP writer that one frame.
func AppendPayload(b []byte, v any, depth int) ([]byte, error) {
	switch v := v.(type) {
	case WirePayload:
		if wireTypes[v.WireTag()] == nil || depth >= maxPayloadDepth {
			return b, fmt.Errorf("net: payload type %T is not registered, or nested deeper than %d", v, maxPayloadDepth)
		}
		return v.AppendWire(append(b, v.WireTag()), depth+1)
	case types.Msg:
		return wire.AppendMsg(b, v, 0)
	default:
		return b, fmt.Errorf("net: payload type %T has no wire encoding", v)
	}
}

// ReadPayload decodes one payload: the single entry point for every byte a
// peer can send. A failure sticks to r and returns nil.
func ReadPayload(r *wire.Reader, depth int) any {
	if len(r.B) == 0 || r.B[0] < firstPayloadTag {
		return r.Msg(0) // the union, or a sticky unknown-tag error
	}
	tag := r.Byte()
	if wireTypes[tag] == nil || depth >= maxPayloadDepth {
		r.Fail("payload tag %#x is not registered, or nested deeper than %d", tag, maxPayloadDepth)
		return nil
	}
	return wireTypes[tag].ReadWire(r, depth+1)
}

// DecodeFrame decodes one frame body, all of it: trailing bytes are an error.
func DecodeFrame(b []byte) (any, error) {
	r := wire.Reader{B: b}
	v := ReadPayload(&r, 0)
	return v, r.Finish("frame")
}

// appendFrame appends one frame, length prefix and payload. If the payload
// does not encode, b comes back as it went in: the frames before it stand.
func appendFrame(b []byte, payload Payload) ([]byte, error) {
	start := len(b)
	var room [maxLenPrefix]byte
	b, err := AppendPayload(append(b, room[:]...), payload, 0)
	n := len(b) - start - maxLenPrefix
	if err == nil && n > MaxFrame {
		err = fmt.Errorf("net: %T encodes to %d bytes, over the %d-byte frame limit", payload, n, MaxFrame)
	}
	if err != nil {
		return b[:start], err
	}
	// The prefix is as short as the length allows; close the gap it left.
	k := binary.PutUvarint(b[start:], uint64(n))
	copy(b[start+k:], b[start+maxLenPrefix:])
	return b[:start+k+n], nil
}

func appendPreamble(b []byte, self types.ProcID) []byte {
	return wire.AppendInt(append(b, wireHead...), int(self))
}

func (GroupFrame) WireTag() byte { return 0x80 }

func (f GroupFrame) AppendWire(b []byte, depth int) ([]byte, error) {
	return AppendPayload(wire.AppendInt(b, int(f.G)), f.P, depth)
}

func (GroupFrame) ReadWire(r *wire.Reader, depth int) any {
	return GroupFrame{G: r.Group(), P: ReadPayload(r, depth)}
}
