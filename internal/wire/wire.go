// Package wire is the one byte encoding of the tree: a hand-written tag-byte
// + varint codec for the values every layer exchanges — views, labels,
// summaries and the types.Msg union. The TCP transport's frame bodies
// (internal/net), the trace segments (internal/conform) and the multicast
// control payloads (internal/mcast) are all built from these primitives.
// It is stateless — every value is decodable from its own bytes — which lets
// a trace record be encoded outside the recorder's mutex and a TCP frame be
// retried on a fresh connection. Layout in DESIGN.md §6.8.
//
// Conventions: counts, lengths, record offsets, ViewID.Seq and a summary's
// Base and Digest are uvarints; every other integer (process ids, label
// sequence numbers, Summary.Next) is a zigzag varint; a string is a uvarint length plus its bytes; sets and
// maps are written in sorted order so equal values encode to equal bytes.
// Each union has its own tag range, so a byte from the wrong union is a decode
// error rather than a misparse: 0x10–0x4F and 0x60–0x7F the trace codec's events
// and effects, 0x50–0x5F the message union below, 0x80 and up net's payloads.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Tags of the types.Msg union.
const (
	TagClientMsg byte = 0x50 + iota
	TagBatch
	TagInfoMsg
	TagRegisteredMsg
	TagLabelMsg
	TagSummaryMsg
)

// MaxBatchDepth bounds Batch nesting on both sides of the codec: the tob
// shell nests one level, and the decoder must not recurse as deep as a
// hostile peer or file asks it to.
const MaxBatchDepth = 4

func AppendInt(b []byte, v int) []byte       { return binary.AppendVarint(b, int64(v)) }
func AppendCount(b []byte, n int) []byte     { return binary.AppendUvarint(b, uint64(n)) }
func AppendString(b []byte, s string) []byte { return append(AppendCount(b, len(s)), s...) }

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendViewID(b []byte, g types.ViewID) []byte {
	return AppendInt(binary.AppendUvarint(b, g.Seq), int(g.Origin))
}

func AppendView(b []byte, v types.View) []byte {
	b = AppendCount(AppendViewID(b, v.ID), v.Members.Len())
	for p := v.Members.First(); p >= 0; p = v.Members.Next(p) {
		b = AppendInt(b, int(p))
	}
	return b
}

func AppendLabel(b []byte, l types.Label) []byte {
	return AppendInt(AppendInt(AppendViewID(b, l.ID), l.Seqno), int(l.Origin))
}

func AppendSummary(b []byte, x types.Summary) []byte {
	b = AppendCount(b, len(x.Con))
	for _, l := range x.Con.Labels() {
		b = AppendString(AppendLabel(b, l), x.Con[l])
	}
	b = AppendCount(binary.AppendUvarint(AppendCount(b, x.Base), x.Digest), len(x.Ord))
	for _, l := range x.Ord {
		b = AppendLabel(b, l)
	}
	return AppendViewID(AppendInt(b, x.Next), x.High)
}

func AppendGroups(b []byte, gs []types.GroupID) []byte {
	b = AppendCount(b, len(gs))
	for _, g := range gs {
		b = AppendInt(b, int(g))
	}
	return b
}

// AppendMcData and AppendMcProp are the field runs of a multicast data
// broadcast and of a timestamp proposal, shared by the trace records and the
// control payloads that carry them.
func AppendMcData(b []byte, id string, origin types.ProcID, dests []types.GroupID, payload string) []byte {
	return AppendString(AppendGroups(AppendInt(AppendString(b, id), int(origin)), dests), payload)
}

func AppendMcProp(b []byte, pgroup types.GroupID, id string, ts uint64) []byte {
	return binary.AppendUvarint(AppendString(AppendInt(b, int(pgroup)), id), ts)
}

// AppendMsg encodes one message of the union. A type with no wire tag is an
// error, not a panic: the trace recorder turns it into its sticky Err and the
// TCP writer into one counted drop.
func AppendMsg(b []byte, m types.Msg, depth int) ([]byte, error) {
	switch m := m.(type) {
	case types.ClientMsg:
		return AppendString(append(b, TagClientMsg), string(m)), nil
	case types.Batch:
		if depth >= MaxBatchDepth {
			return b, fmt.Errorf("wire: batch nested deeper than %d", MaxBatchDepth)
		}
		b = AppendCount(append(b, TagBatch), len(m.Msgs))
		for _, inner := range m.Msgs {
			var err error
			if b, err = AppendMsg(b, inner, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case dvscore.InfoMsg:
		b = AppendCount(AppendView(append(b, TagInfoMsg), m.Act), len(m.Amb))
		for _, v := range m.Amb {
			b = AppendView(b, v)
		}
		return b, nil
	case dvscore.RegisteredMsg:
		return append(b, TagRegisteredMsg), nil
	case tocore.LabelMsg:
		return AppendString(AppendLabel(append(b, TagLabelMsg), m.L), m.A), nil
	case tocore.SummaryMsg:
		return AppendSummary(append(b, TagSummaryMsg), m.X), nil
	default:
		return b, fmt.Errorf("wire: message type %T has no wire tag", m)
	}
}
