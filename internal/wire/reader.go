package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Reader decodes the codec from the byte slice B. The first failure sticks
// in Err and empties B: every later read returns zero and every count reads
// as 0, so a decoder built from these methods terminates on any input and
// checks Err once. Strings are copied out, so nothing decoded aliases the
// input and a caller may reuse the buffer as soon as the decode returns.
type Reader struct {
	B   []byte
	Err error
}

// Fail records a decode error found by the caller, unless one is recorded
// already, and drops the rest of the input.
func (r *Reader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
	r.B = nil
}

// Finish closes a decode: trailing bytes are an error, and the first error
// comes back named after the kind of thing being decoded.
func (r *Reader) Finish(kind string) error {
	if r.Err == nil && len(r.B) != 0 {
		r.Fail("%d trailing bytes", len(r.B))
	}
	if r.Err != nil {
		return fmt.Errorf("decode %s: %w", kind, r.Err)
	}
	return nil
}

func (r *Reader) Byte() byte {
	if len(r.B) == 0 {
		r.Fail("unexpected end of data")
		return 0
	}
	c := r.B[0]
	r.B = r.B[1:]
	return c
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.B = r.B[n:]
	return v
}

func (r *Reader) Int() int {
	v, n := binary.Varint(r.B)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.B = r.B[n:]
	return int(v)
}

// Index reads a non-negative offset or sequence number.
func (r *Reader) Index() int {
	v := r.Uvarint()
	if v > math.MaxInt/2 { // room for start+i without overflow
		r.Fail("offset %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and checks it against the bytes remaining:
// n elements of at least min bytes each must fit, so no allocation sized by
// a count can exceed what the input could actually hold.
func (r *Reader) Count(min int) int {
	v := r.Uvarint()
	if v > uint64(len(r.B)/min) {
		r.Fail("count %d exceeds the %d bytes remaining", v, len(r.B))
		return 0
	}
	return int(v)
}

// Take reads a length-prefixed run of bytes, aliasing the input.
func (r *Reader) Take() []byte {
	n := r.Count(1)
	out := r.B[:n]
	r.B = r.B[n:]
	return out
}

func (r *Reader) Str() string          { return string(r.Take()) }
func (r *Reader) Bool() bool           { return r.Byte() == 1 }
func (r *Reader) Proc() types.ProcID   { return types.ProcID(r.Int()) }
func (r *Reader) Group() types.GroupID { return types.GroupID(r.Int()) }

func (r *Reader) Groups() []types.GroupID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	gs := make([]types.GroupID, n)
	for i := range gs {
		gs[i] = r.Group()
	}
	return gs
}

func (r *Reader) ViewID() types.ViewID {
	return types.ViewID{Seq: r.Uvarint(), Origin: r.Proc()}
}

// View reads a view's id, then its members as a count and ids. An id a
// process set cannot hold fails the read rather than reaching the set.
func (r *Reader) View() types.View {
	v := types.View{ID: r.ViewID()}
	for i, n := 0, r.Count(1); i < n; i++ {
		p := r.Proc()
		if err := types.CheckProc(p); err != nil {
			r.Fail("view %s: %v", v.ID, err)
			return types.View{}
		}
		v.Members = v.Members.With(p)
	}
	return v
}

func (r *Reader) Label() types.Label {
	return types.Label{ID: r.ViewID(), Seqno: r.Int(), Origin: r.Proc()}
}

func (r *Reader) Summary() types.Summary {
	n := r.Count(4) // label (3) + empty string (1)
	x := types.Summary{Con: make(types.Content, n)}
	for i := 0; i < n; i++ {
		l := r.Label()
		x.Con[l] = r.Str()
	}
	x.Base, x.Digest = r.Index(), r.Uvarint()
	if n = r.Count(3); n > 0 {
		x.Ord = make([]types.Label, n)
		for i := range x.Ord {
			x.Ord[i] = r.Label()
		}
	}
	x.Next = r.Int()
	x.High = r.ViewID()
	return x
}

// Msg decodes one message of the union.
func (r *Reader) Msg(depth int) types.Msg {
	switch tag := r.Byte(); tag {
	case TagClientMsg:
		return types.ClientMsg(r.Str())
	case TagBatch:
		if depth >= MaxBatchDepth {
			r.Fail("batch nested deeper than %d", MaxBatchDepth)
			return nil
		}
		n := r.Count(1)
		out := types.Batch{Msgs: make([]types.Msg, n)}
		for i := range out.Msgs {
			out.Msgs[i] = r.Msg(depth + 1)
		}
		return out
	case TagInfoMsg:
		out := dvscore.InfoMsg{Act: r.View()}
		if n := r.Count(3); n > 0 { // view id (2) + member count (1)
			out.Amb = make([]types.View, n)
			for i := range out.Amb {
				out.Amb[i] = r.View()
			}
		}
		return out
	case TagRegisteredMsg:
		return dvscore.RegisteredMsg{}
	case TagLabelMsg:
		return tocore.LabelMsg{L: r.Label(), A: r.Str()}
	case TagSummaryMsg:
		return tocore.SummaryMsg{X: r.Summary()}
	default:
		r.Fail("unknown message tag %#x", tag)
		return nil
	}
}
