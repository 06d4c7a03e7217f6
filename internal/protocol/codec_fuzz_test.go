package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"opaque/internal/roadnet"
)

// footprint is the memory a decoded message occupies beyond its own struct:
// what the decoder allocated for it.
func footprint(msg any) int {
	reply := func(r *ServerReply) int {
		n := 48 * len(r.Paths)
		for i := range r.Paths {
			n += 4 * len(r.Paths[i].Nodes)
		}
		return n
	}
	query := func(q *ServerQuery) int { return 80 + 4*(len(q.Sources)+len(q.Dests)) }
	switch m := msg.(type) {
	case ServerReply:
		return reply(&m)
	case BatchItem:
		return reply(&m.Reply) + len(m.Error)
	case ServerQuery:
		return query(&m)
	case BatchQuery:
		n := 0
		for i := range m.Queries {
			n += query(&m.Queries[i])
		}
		return n
	case WeightUpdate:
		return 16 * len(m.Changes)
	case ClientReply:
		return 4*len(m.Path) + len(m.Error)
	case ClientRequest:
		return len(m.User)
	case Hello:
		return len(m.Node) + len(m.Role)
	case ErrorReply:
		return len(m.Message)
	}
	return 0
}

// maxFootprintPerByte is the constant the decoder's allocations are bounded
// by: maxPathExpansion four-byte node ids per payload byte dominate it.
const maxFootprintPerByte = 4*maxPathExpansion + 64

// checkDecoded asserts the properties every accepted payload must have: the
// decoder allocated no more than a constant multiple of the bytes received,
// and the message re-encodes to a payload that decodes back to it.
func checkDecoded(t *testing.T, data []byte, msg any) {
	t.Helper()
	if fp := footprint(msg); fp > maxFootprintPerByte*len(data) {
		t.Fatalf("%d-byte payload decoded to a %d-byte %T", len(data), fp, msg)
	}
	again, err := AppendMessage(nil, msg, 0)
	if err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", msg, err)
	}
	back, _, err := DecodeMessage(again)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", msg, err)
	}
	// Compared as bytes, not values: a NaN cost is a legal float64 on the
	// wire and unequal to itself in memory.
	if third, err := AppendMessage(nil, back, 0); err != nil || !bytes.Equal(third, again) {
		t.Fatalf("re-encoded %T is not a fixed point of the codec (err %v):\n got %+v\nwant %+v", msg, err, back, msg)
	}
}

// typedDecodeError reports whether err is one of the codec's typed errors.
func typedDecodeError(err error) bool {
	return errors.Is(err, ErrPayloadTruncated) || errors.Is(err, ErrPayloadMalformed) || errors.Is(err, ErrCodecVersion)
}

// readHeld is the relay's read of a payload: a ServerReply is held whole, a
// BatchItem up to its held reply, anything else refused.
func readHeld(data []byte) (any, error) {
	if t, _, err := PeekHeader(data); err == nil && t == TypeBatchItem {
		item, body, err := readItemHead(data)
		if err != nil {
			return nil, err
		}
		item.Held, err = holdReply(body)
		return item, err
	}
	held, _, err := ReadHeldReply(data)
	return held, err
}

// sameHeader reports whether a held reply carries a decoded reply's header.
func sameHeader(h HeldReply, rep ServerReply) bool {
	return h.QueryID == rep.QueryID && h.Degraded == rep.Degraded && h.Generation == rep.Generation &&
		h.ContentSum == rep.ContentSum
}

// checkHeld asserts the relay's read against the full decode of one payload:
// whatever DecodeMessage accepts as a reply, the header read accepts with the
// same header fields, and the held form re-encodes to the payload byte for
// byte.
func checkHeld(t *testing.T, data []byte, deadline int64, msg any, held any, heldErr error) {
	t.Helper()
	switch m := msg.(type) {
	case ServerReply:
		if heldErr != nil || !sameHeader(held.(HeldReply), m) {
			t.Fatalf("decoded reply %+v held as %+v (err %v)", m, held, heldErr)
		}
	case BatchItem:
		item, _ := held.(BatchItem)
		if heldErr != nil || item.BatchID != m.BatchID || item.Index != m.Index || item.Error != m.Error || !sameHeader(item.Held, m.Reply) {
			t.Fatalf("decoded item %+v held as %+v (err %v)", m, held, heldErr)
		}
	default:
		if heldErr == nil {
			t.Fatalf("a %T payload was held as a reply", msg)
		}
		return
	}
	again, err := AppendMessage(nil, held, deadline)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("held %T re-encodes to %x (err %v), read from %x", held, again, err, data)
	}
}

// fuzzDecode is the body of every payload fuzz target: arbitrary bytes either
// decode to a well-behaved message or fail with a typed error, and the
// relay's header-only read agrees with the decode; nothing panics.
func fuzzDecode(t *testing.T, data []byte) {
	held, heldErr := readHeld(data)
	if heldErr != nil && !typedDecodeError(heldErr) {
		t.Fatalf("untyped header read error: %v", heldErr)
	}
	msg, deadline, err := DecodeMessage(data)
	if err != nil {
		if !typedDecodeError(err) {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	checkDecoded(t, data, msg)
	checkHeld(t, data, deadline, msg, held, heldErr)
}

func seed(f *testing.F, msgs ...any) {
	f.Helper()
	for _, m := range msgs {
		payload, err := AppendMessage(nil, m, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})
}

// FuzzDecodeServerReply covers the columnar reply (also inside BatchItem):
// counts, attach points and node totals beyond the payload,
// |S|·|T| overflow, varint overruns.
func FuzzDecodeServerReply(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seed(f,
		randomReply(rng, 3, 3, false),
		randomReply(rng, 16, 16, false),
		randomReply(rng, 4, 4, true),
		ServerReply{},
		BatchItem{BatchID: 1, Index: 2, Reply: randomReply(rng, 2, 3, false)},
	)
	// |S| = |T| = 2^32: the product overflows 64 bits' worth of cells.
	f.Add([]byte{byte(TypeServerReply), CodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Fuzz(fuzzDecode)
}

// FuzzDecodeBatchQuery covers BatchQuery and, through it, ServerQuery.
func FuzzDecodeBatchQuery(f *testing.F) {
	seed(f,
		ServerQuery{QueryID: 9, Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}},
		BatchQuery{BatchID: 5, Queries: []ServerQuery{{QueryID: 1, Sources: []roadnet.NodeID{7, 70000}, Dests: []roadnet.NodeID{8, 9}}, {QueryID: 2, DistanceOnly: true}}},
		BatchQuery{},
	)
	f.Fuzz(fuzzDecode)
}

// FuzzDecodeWeightUpdate covers the update path's messages.
func FuzzDecodeWeightUpdate(f *testing.F) {
	seed(f,
		WeightUpdate{UpdateID: 11, Changes: []roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 3.5}, {From: 9, To: 4, NewCost: 0.25}}},
		WeightUpdateAck{UpdateID: 11, Generation: 2, ContentSum: 0xbeef},
		ErrorReply{RefID: 1, Message: "boom"},
	)
	f.Fuzz(fuzzDecode)
}
