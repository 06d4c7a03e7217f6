package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
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
	return errors.Is(err, ErrPayloadTruncated) || errors.Is(err, ErrPayloadMalformed) || errors.Is(err, ErrCodecVersion) ||
		errors.Is(err, ErrTopologyMismatch)
}

// readHeld is the relay's read of a payload: a ServerReply is held whole, a
// BatchItem up to its held reply, anything else refused.
func readHeld(data []byte) (any, error) {
	if t, _, err := PeekHeader(data); err == nil && t == TypeBatchItem {
		item, body, err := readItemHead(data)
		if err != nil {
			return nil, err
		}
		held, err := holdReply(body)
		item.Reply = held.Reply()
		return item, err
	}
	held, _, err := ReadHeldReply(data)
	return held, err
}

// sameHeader reports whether a held reply carries a decoded reply's header.
func sameHeader(h HeldReply, rep ServerReply) bool {
	return h.QueryID == rep.QueryID && h.Degraded == rep.Degraded && h.SettledNodes == rep.SettledNodes &&
		h.PageFaults == rep.PageFaults && h.Generation == rep.Generation && h.ContentSum == rep.ContentSum &&
		h.nS*h.nT == len(rep.Paths)
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
		if heldErr != nil || item.BatchID != m.BatchID || item.Index != m.Index || item.Error != m.Error || !sameHeader(item.Reply.Held, m.Reply) {
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

// maxFuzzCells caps the cells checkCells reads of one reply.
const maxFuzzCells = 64

// checkCells asserts the cell reader against the full decode of one held
// reply: reading its cells (up to maxFuzzCells, in one pass) fails exactly
// when Decode fails, with a typed error, and otherwise every cell read
// equals Decode's.
func checkCells(t *testing.T, h HeldReply) {
	t.Helper()
	full, fullErr := h.Decode(nil)
	at := make([][2]int, min(h.nS*h.nT, maxFuzzCells))
	for c := range at {
		at[c] = [2]int{c / h.nT, c % h.nT}
	}
	cells := make([]CandidatePath, len(at))
	err := h.Reply().ReadCells(nil, cells, at)
	switch {
	case len(at) == 0:
	case (err == nil) != (fullErr == nil):
		t.Fatalf("%d×%d table: cell read err %v, full decode err %v", h.nS, h.nT, err, fullErr)
	case err != nil:
		if !typedDecodeError(err) {
			t.Fatalf("untyped cell read error: %v", err)
		}
	default:
		for c, cell := range cells {
			want := full.Paths[c]
			if cell.Source != want.Source || cell.Dest != want.Dest || cell.Found != want.Found ||
				math.Float64bits(cell.Cost) != math.Float64bits(want.Cost) || !slices.Equal(cell.Nodes, want.Nodes) ||
				(cell.Nodes == nil) != (want.Nodes == nil) || cap(cell.Nodes) != len(cell.Nodes) {
				t.Fatalf("cell %d of %d×%d read as %+v, decoded as %+v", c, h.nS, h.nT, cell, want)
			}
		}
	}
}

// fuzzMap is the map FuzzDecodeServerReply binds its inputs to.
var fuzzMap = sync.OnceValue(func() *roadnet.Graph { return gridMap(6, 6) })

// asArcReply returns data, a ServerReply or BatchItem payload, with its
// reply's paths form set to out-arc ordinals on g and its topology checksum
// set to g's: how the bytes after it read as a reply bound to g. It returns
// nil when data has no reply header to rewrite.
func asArcReply(data []byte, g *roadnet.Graph) []byte {
	var body []byte
	switch typ, _, err := PeekHeader(data); {
	case err != nil:
		return nil
	case typ == TypeServerReply:
		body = data[payloadHeaderLen:]
	case typ == TypeBatchItem:
		if _, body, err = readItemHead(data); err != nil {
			return nil
		}
	default:
		return nil
	}
	_, n := binary.Uvarint(body)
	at := len(data) - len(body) + n
	if n <= 0 || at >= len(data) {
		return nil
	}
	rest := data[at+1:]
	if data[at] == pathsAsArcs {
		rest = rest[min(8, len(rest)):]
	}
	out := append(slices.Clip(data[:at]), pathsAsArcs)
	out = binary.BigEndian.AppendUint64(out, g.TopologyChecksum())
	return append(out, rest...)
}

// checkArcCells asserts the cell reader against the full decode of a held
// reply bound to g. A read of no cell checks the body's structure: it fails
// exactly when the full decode fails other than on an ordinal, with the
// same error, and so does every read of one cell. Past the structure, every
// cell read alone either fails or is a walk on g that equals the full
// decode's cell when the full decode succeeds; a read of many cells fails
// exactly when one of them fails alone; and a full decode that failed on an
// ordinal has a cell that fails alone. Every failure is typed.
func checkArcCells(t *testing.T, h HeldReply, g *roadnet.Graph) {
	t.Helper()
	full, fullErr := h.Decode(g)
	if fullErr != nil && !typedDecodeError(fullErr) {
		t.Fatalf("untyped decode error: %v", fullErr)
	}
	shapeErr := h.Reply().ReadCells(g, nil, nil)
	if shapeErr != nil && (fullErr == nil || errors.Unwrap(shapeErr).Error() != errors.Unwrap(fullErr).Error()) {
		t.Fatalf("structure read err %v, full decode err %v", shapeErr, fullErr)
	}
	if fullErr == nil {
		if fp := footprint(full); fp > maxFootprintPerByte*len(h.body) {
			t.Fatalf("%d-byte body decoded to a %d-byte reply", len(h.body), fp)
		}
		again, err := AppendMessage(nil, full, 0)
		if err != nil {
			t.Fatalf("accepted reply does not re-encode: %v", err)
		}
		back, err := decodeReplyBody(again[payloadHeaderLen:], g)
		if third, err2 := AppendMessage(nil, back, 0); err != nil || err2 != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoded reply is not a fixed point of the codec (err %v, %v)", err, err2)
		}
	}
	n := min(h.nS*h.nT, maxFuzzCells)
	at := make([][2]int, n)
	anyFailed := false
	for c := range at {
		at[c] = [2]int{c / h.nT, c % h.nT}
		var cell [1]CandidatePath
		err := h.Reply().ReadCells(g, cell[:], at[c:c+1])
		switch {
		case shapeErr != nil:
			if err == nil || errors.Unwrap(err).Error() != errors.Unwrap(shapeErr).Error() {
				t.Fatalf("cell %d: err %v, structure read err %v", c, err, shapeErr)
			}
		case err != nil:
			if !typedDecodeError(err) || fullErr == nil {
				t.Fatalf("cell %d: err %v, full decode err %v", c, err, fullErr)
			}
			anyFailed = true
		case fullErr == nil:
			want := full.Paths[c]
			if cell[0].Source != want.Source || cell[0].Dest != want.Dest || !slices.Equal(cell[0].Nodes, want.Nodes) ||
				(cell[0].Nodes == nil) != (want.Nodes == nil) || cap(cell[0].Nodes) != len(cell[0].Nodes) {
				t.Fatalf("cell %d read as %+v, decoded as %+v", c, cell[0], want)
			}
		default:
			p := cell[0].Nodes
			if len(p) > 0 && p[0] != cell[0].Source {
				t.Fatalf("cell %d: path %v does not leave its source %d", c, p, cell[0].Source)
			}
			for k := 1; k < len(p); k++ {
				if _, ok := g.ArcCost(p[k-1], p[k]); !ok {
					t.Fatalf("cell %d: path %v steps off the map at %d", c, p, k)
				}
			}
		}
	}
	if shapeErr != nil || n == 0 {
		return
	}
	if fullErr != nil && n == h.nS*h.nT && !anyFailed {
		t.Fatalf("full decode failed (%v), every cell read", fullErr)
	}
	cells := make([]CandidatePath, n)
	if err := h.Reply().ReadCells(g, cells, at); (err != nil) != anyFailed {
		t.Fatalf("reading %d cells at once: err %v; one failed alone: %v", n, err, anyFailed)
	}
}

// fuzzDecode is the body of every payload fuzz target: arbitrary bytes either
// decode to a well-behaved message or fail with a typed error, the relay's
// header-only read agrees with the decode, and every cell read out of a held
// reply agrees with the full decode; nothing panics. A reply, alone or in a
// batch item, is also read as bound to fuzzMap (checkArcCells).
func fuzzDecode(t *testing.T, data []byte) {
	if arc := asArcReply(data, fuzzMap()); arc != nil {
		switch h, err := readHeld(arc); h := h.(type) {
		case HeldReply:
			checkArcCells(t, h, fuzzMap())
		case BatchItem:
			checkArcCells(t, h.Reply.Held, fuzzMap())
		default:
			if !typedDecodeError(err) {
				t.Fatalf("untyped header read error: %v", err)
			}
		}
	}
	held, heldErr := readHeld(data)
	if heldErr != nil && !typedDecodeError(heldErr) {
		t.Fatalf("untyped header read error: %v", heldErr)
	}
	switch h := held.(type) {
	case HeldReply:
		checkCells(t, h)
	case BatchItem:
		checkCells(t, h.Reply.Held)
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
// |S|·|T| overflow, varint overruns, and, bound to fuzzMap, widths, bit
// streams and out-arc ordinals.
func FuzzDecodeServerReply(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	bound := evaluatedReply(f, fuzzMap(), 5, 1)
	bound.Map = fuzzMap()
	seed(f,
		bound,
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
