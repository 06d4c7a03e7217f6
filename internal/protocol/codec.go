package protocol

// This file is the one wire encoding of every protocol message: the payload
// of an OPMX1 FrameMsg / FrameStreamItem / FrameErr frame and (TypeHello) of
// the handshake and heartbeat frames. docs/FORMATS.md has the field tables
// and a worked hex example; in short:
//
//   - A payload is a 10-byte header — message type, codec version, request
//     deadline (Unix nanoseconds, big-endian, 0 = none) — then the message's
//     fields in order: uvarints, zigzag varints for signed values, 8
//     big-endian bytes for float64s and checksums, length-prefixed strings,
//     count-prefixed lists, node ids as zigzag deltas from their predecessor.
//   - Every payload is self-contained (no stream state, no type descriptions),
//     so any goroutine decodes any payload in any order and a payload that
//     fails to decode fails exactly one request.
//   - A ServerReply — |S|·|T| candidate paths for the one path the filter
//     keeps — is columnar: the S and T ids once, a found bitmap, one cost
//     table and, unless Degraded, the paths as one prefix tree per source: a
//     path is where it attaches to an earlier path of its source plus the
//     suffix beyond. It decodes into exactly two allocations, a
//     []CandidatePath slab and a []NodeID arena every Nodes sub-slices.
//   - A reply's header — QueryID, Degraded, SettledNodes, PageFaults,
//     Generation, ContentSum — precedes its table, so a relay reads the
//     header alone and holds the body as bytes (HeldReply): the fleet router
//     forwards shard replies without decoding or re-encoding a path.
//     Held bodies alias their payload; every decoded message owns its memory.
//   - Decoding validates every count against the bytes that remain before
//     allocating, and bounds the one place the format expands (a shared
//     prefix costs two bytes however long it is) with maxPathExpansion, so a
//     payload never makes its receiver allocate more than a constant multiple
//     of its own length. Bad input returns a typed error; nothing panics.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"opaque/internal/roadnet"
)

// CodecVersion is the payload encoding version this build speaks. It rides
// in every payload header and is checked at the handshake: peers speaking
// different versions refuse each other with ErrHandshake instead of
// misreading each other's bytes.
const CodecVersion = 2

// payloadHeaderLen is the fixed header every payload starts with.
const payloadHeaderLen = 10

// maxPathExpansion bounds the path nodes a ServerReply may decode to per byte
// of its encoded paths; without it a hostile peer could describe gigabytes of
// shared-prefix paths in a few kilobytes. Real replies sit around 2 nodes
// per byte; an encoder whose reply would exceed the bound (hundreds of
// destinations down one corridor) writes it unshared, which always fits.
const maxPathExpansion = 64

// Typed payload decoding errors.
var (
	// ErrPayloadTruncated reports a payload that ends before the message it
	// declares does.
	ErrPayloadTruncated = errors.New("protocol: truncated payload")
	// ErrPayloadMalformed reports a payload that cannot be a message: an
	// unknown type, a count, offset or attach point beyond the payload, an
	// overlong varint, a node id outside int32, trailing bytes.
	ErrPayloadMalformed = errors.New("protocol: malformed payload")
	// ErrCodecVersion reports a payload written by another codec version.
	ErrCodecVersion = errors.New("protocol: unsupported codec version")
	// ErrReplyShape reports a ServerReply whose Paths is not the source-major
	// |S|×|T| table the encoding (and every consumer) relies on.
	ErrReplyShape = errors.New("protocol: reply paths are not a source-major |S|×|T| table")
)

// wireMessage is what every message type implements to be encoded: its type
// tag and its body. Value receivers, so values and pointers both qualify.
type wireMessage interface {
	wireType() MessageType
	appendBody(dst []byte) ([]byte, error)
}

func (ClientRequest) wireType() MessageType   { return TypeClientRequest }
func (ClientReply) wireType() MessageType     { return TypeClientReply }
func (ServerQuery) wireType() MessageType     { return TypeServerQuery }
func (ServerReply) wireType() MessageType     { return TypeServerReply }
func (HeldReply) wireType() MessageType       { return TypeServerReply }
func (ErrorReply) wireType() MessageType      { return TypeError }
func (BatchQuery) wireType() MessageType      { return TypeBatchQuery }
func (BatchItem) wireType() MessageType       { return TypeBatchItem }
func (WeightUpdate) wireType() MessageType    { return TypeWeightUpdate }
func (WeightUpdateAck) wireType() MessageType { return TypeWeightUpdateAck }
func (Hello) wireType() MessageType           { return TypeHello }

// AppendMessage appends msg's payload — header, stamped with deadline (Unix
// nanoseconds, 0 = none), and body — to dst and returns the extended slice.
// Messages are accepted by value or by pointer. msg is only read: the same
// value may be encoded any number of times, concurrently.
//
//opaque:noalloc
func AppendMessage(dst []byte, msg any, deadline int64) ([]byte, error) {
	m, ok := msg.(wireMessage)
	if !ok {
		//opaque:allow(noalloc) refusal path: a caller bug, nothing is sent
		return dst, fmt.Errorf("protocol: unsupported message type %T", msg)
	}
	start := len(dst)
	dst = append(dst, byte(m.wireType()), CodecVersion) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	dst = binary.BigEndian.AppendUint64(dst, uint64(deadline))
	dst, err := m.appendBody(dst)
	if err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// PeekHeader validates a payload's header and returns its message type and
// deadline (Unix nanoseconds, 0 = none) without touching the body — what the
// serving side needs to refuse expired work before paying for a decode.
//
//opaque:noalloc
func PeekHeader(payload []byte) (MessageType, int64, error) {
	if len(payload) < payloadHeaderLen {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return 0, 0, fmt.Errorf("%w: %d bytes, need a %d-byte header", ErrPayloadTruncated, len(payload), payloadHeaderLen)
	}
	if payload[1] != CodecVersion {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return 0, 0, fmt.Errorf("%w: payload is version %d, this build speaks %d", ErrCodecVersion, payload[1], CodecVersion)
	}
	t := MessageType(payload[0])
	if t == 0 || t > TypeHello {
		//opaque:allow(noalloc) rejection path for garbage input; a well-formed stream never takes it
		return 0, 0, fmt.Errorf("%w: unknown message type %d", ErrPayloadMalformed, payload[0])
	}
	return t, int64(binary.BigEndian.Uint64(payload[2:payloadHeaderLen])), nil
}

// DecodeMessage decodes one payload into the message value it carries
// (ClientRequest, ServerReply, … by value) and its header deadline. The
// result shares no memory with payload.
func DecodeMessage(payload []byte) (any, int64, error) {
	t, deadline, err := PeekHeader(payload)
	if err != nil {
		return nil, 0, err
	}
	r := wireReader{b: payload[payloadHeaderLen:]}
	var msg any
	switch t {
	case TypeClientRequest:
		msg = r.clientRequest()
	case TypeClientReply:
		msg = r.clientReply()
	case TypeServerQuery:
		msg = r.serverQuery()
	case TypeServerReply:
		var rep ServerReply
		r.serverReply(&rep)
		msg = rep
	case TypeBatchQuery:
		msg = r.batchQuery()
	case TypeBatchItem:
		item := r.batchItemHead()
		r.serverReply(&item.Reply)
		msg = item
	case TypeWeightUpdate:
		msg = r.weightUpdate()
	case TypeWeightUpdateAck:
		msg = WeightUpdateAck{UpdateID: r.uvarint(), Generation: r.uvarint(), ContentSum: r.u64()}
	case TypeError:
		msg = ErrorReply{RefID: r.uvarint(), Message: r.str()}
	case TypeHello:
		msg = r.hello()
	}
	r.end()
	if r.err != nil {
		return nil, 0, fmt.Errorf("decoding message type %d: %w", t, r.err)
	}
	return msg, deadline, nil
}

// ReadHeldReply reads a ServerReply payload's header and holds its body (see
// HeldReply), returning the header deadline too. Only the reply header is
// validated: a reply whose table is malformed is held, and fails where it is
// decoded.
func ReadHeldReply(payload []byte) (HeldReply, int64, error) {
	t, deadline, err := PeekHeader(payload)
	if err != nil {
		return HeldReply{}, 0, err
	}
	if t != TypeServerReply {
		return HeldReply{}, 0, fmt.Errorf("%w: message type %d is not a ServerReply", ErrPayloadMalformed, t)
	}
	h, err := holdReply(payload[payloadHeaderLen:])
	return h, deadline, err
}

// holdReply reads a reply body's header fields and holds the body. It
// allocates nothing.
func holdReply(body []byte) (HeldReply, error) {
	r := wireReader{b: body}
	h := HeldReply{QueryID: r.uvarint(), Degraded: r.bool()}
	r.int()    // SettledNodes
	r.varint() // PageFaults
	h.Generation = r.uvarint()
	h.ContentSum = r.u64()
	if r.err != nil {
		return HeldReply{}, fmt.Errorf("reading reply header: %w", r.err)
	}
	h.body = body
	return h, nil
}

// Decode decodes the held body into the ServerReply it carries. The result
// shares no memory with the held bytes.
func (h HeldReply) Decode() (ServerReply, error) { return decodeReplyBody(h.body) }

// decodeReplyBody decodes one whole reply body, trailing bytes refused.
func decodeReplyBody(body []byte) (ServerReply, error) {
	r := wireReader{b: body}
	var rep ServerReply
	r.serverReply(&rep)
	r.end()
	if r.err != nil {
		return ServerReply{}, fmt.Errorf("decoding reply: %w", r.err)
	}
	return rep, nil
}

// readItemHead reads a BatchItem payload up to its reply: the header, then
// BatchID, Index and Error. It returns the item so far and the reply body.
func readItemHead(payload []byte) (BatchItem, []byte, error) {
	t, _, err := PeekHeader(payload)
	if err != nil {
		return BatchItem{}, nil, err
	}
	if t != TypeBatchItem {
		return BatchItem{}, nil, fmt.Errorf("%w: message type %d is not a BatchItem", ErrPayloadMalformed, t)
	}
	r := wireReader{b: payload[payloadHeaderLen:]}
	item := r.batchItemHead()
	if r.err != nil {
		return BatchItem{}, nil, fmt.Errorf("reading batch item: %w", r.err)
	}
	return item, r.b, nil
}

// ---- encoding ----

//opaque:noalloc
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
}

func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

//opaque:noalloc
func appendBool(dst []byte, b bool) []byte {
	var v byte
	if b {
		v = 1
	}
	return append(dst, v) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
}

// appendIDs appends a delta-coded node-id list with its count.
//
//opaque:noalloc
func appendIDs(dst []byte, ids []roadnet.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := roadnet.NodeID(0)
	for _, v := range ids {
		dst = binary.AppendVarint(dst, int64(v)-int64(prev))
		prev = v
	}
	return dst
}

//opaque:noalloc
func (m ClientRequest) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.RequestID)
	dst = appendString(dst, m.User)
	dst = binary.AppendVarint(dst, int64(m.Source))
	dst = binary.AppendVarint(dst, int64(m.Dest))
	dst = binary.AppendVarint(dst, int64(m.FS))
	return binary.AppendVarint(dst, int64(m.FT)), nil
}

//opaque:noalloc
func (m ClientReply) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.RequestID)
	dst = appendBool(dst, m.Found)
	dst = appendU64(dst, math.Float64bits(m.Cost))
	dst = appendString(dst, m.Error)
	return appendIDs(dst, m.Path), nil
}

//opaque:noalloc
func (q ServerQuery) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, q.QueryID)
	dst = appendBool(dst, q.DistanceOnly)
	return appendIDs(appendIDs(dst, q.Sources), q.Dests), nil
}

//opaque:noalloc
func (b BatchQuery) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, b.BatchID)
	dst = binary.AppendUvarint(dst, uint64(len(b.Queries)))
	for i := range b.Queries {
		dst, _ = b.Queries[i].appendBody(dst)
	}
	return dst, nil
}

//opaque:noalloc
func (m BatchItem) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.BatchID)
	dst = binary.AppendVarint(dst, int64(m.Index))
	dst = appendString(dst, m.Error)
	if m.Held.body != nil {
		return m.Held.appendBody(dst)
	}
	return m.Reply.appendBody(dst)
}

// appendBody appends the held body exactly as it was read.
//
//opaque:noalloc
func (h HeldReply) appendBody(dst []byte) ([]byte, error) {
	if h.body == nil {
		//opaque:allow(noalloc) refusal path: a caller bug, nothing is sent
		return dst, fmt.Errorf("protocol: encoding a HeldReply that holds no reply")
	}
	return append(dst, h.body...), nil //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
}

func (m WeightUpdate) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.UpdateID)
	dst = binary.AppendUvarint(dst, uint64(len(m.Changes)))
	for _, c := range m.Changes {
		dst = binary.AppendVarint(dst, int64(c.From))
		dst = binary.AppendVarint(dst, int64(c.To))
		dst = appendU64(dst, math.Float64bits(c.NewCost))
	}
	return dst, nil
}

func (m WeightUpdateAck) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.UpdateID)
	dst = binary.AppendUvarint(dst, m.Generation)
	return appendU64(dst, m.ContentSum), nil
}

func (m ErrorReply) appendBody(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.RefID)
	return appendString(dst, m.Message), nil
}

func (h Hello) appendBody(dst []byte) ([]byte, error) {
	dst = appendString(dst, h.Node)
	dst = appendString(dst, h.Role)
	dst = binary.AppendUvarint(dst, h.Generation)
	dst = appendU64(dst, h.ContentSum)
	dst = binary.AppendVarint(dst, int64(h.Cells))
	return binary.AppendVarint(dst, int64(h.MaxInFlight)), nil
}

// replyGrid recovers the |S|×|T| shape of a source-major candidate table:
// every cell of a row shares the row's source, every cell of a column the
// column's destination. Rows end where the source changes — except that
// duplicate sources sit in adjacent rows, so the first change may be a
// multiple of |T|; its divisors are tried largest first.
//
//opaque:noalloc
func replyGrid(paths []CandidatePath) (nS, nT int, ok bool) {
	n := len(paths)
	if n == 0 {
		return 0, 0, true
	}
	k := 1
	for k < n && paths[k].Source == paths[0].Source {
		k++
	}
	for nT = k; nT >= 1; nT-- {
		if k%nT == 0 && n%nT == 0 && isGrid(paths, nT) {
			return n / nT, nT, true
		}
	}
	return 0, 0, false
}

func isGrid(paths []CandidatePath, nT int) bool {
	for c := range paths {
		if paths[c].Source != paths[c-c%nT].Source || paths[c].Dest != paths[c%nT].Dest {
			return false
		}
	}
	return true
}

// appendBody appends a reply in columnar form (see the file comment).
//
//opaque:noalloc
func (r ServerReply) appendBody(dst []byte) ([]byte, error) {
	nS, nT, ok := replyGrid(r.Paths)
	if !ok {
		//opaque:allow(noalloc) refusal path: a handler bug, the reply is never sent
		return dst, fmt.Errorf("%w: query %d, %d paths", ErrReplyShape, r.QueryID, len(r.Paths))
	}
	dst = binary.AppendUvarint(dst, r.QueryID)
	dst = appendBool(dst, r.Degraded)
	dst = binary.AppendVarint(dst, int64(r.SettledNodes))
	dst = binary.AppendVarint(dst, r.PageFaults)
	dst = binary.AppendUvarint(dst, r.Generation)
	dst = appendU64(dst, r.ContentSum)
	dst = binary.AppendUvarint(dst, uint64(nS))
	dst = binary.AppendUvarint(dst, uint64(nT))
	if len(r.Paths) == 0 {
		return dst, nil // no table: a failed query's slot, or an error reply's
	}
	prev := roadnet.NodeID(0)
	for i := 0; i < nS; i++ {
		v := r.Paths[i*nT].Source
		dst = binary.AppendVarint(dst, int64(v)-int64(prev))
		prev = v
	}
	prev = 0
	for j := 0; j < nT; j++ {
		v := r.Paths[j].Dest
		dst = binary.AppendVarint(dst, int64(v)-int64(prev))
		prev = v
	}
	// Found bitmap, one bit per cell, LSB first.
	var bits byte
	for c := range r.Paths {
		if r.Paths[c].Found {
			bits |= 1 << (c % 8)
		}
		if c%8 == 7 || c == len(r.Paths)-1 {
			dst = append(dst, bits) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
			bits = 0
		}
	}
	for c := range r.Paths {
		dst = appendU64(dst, math.Float64bits(r.Paths[c].Cost))
	}
	if r.Degraded {
		return dst, nil // a distance-only reply is just the table
	}
	total := 0
	for c := range r.Paths {
		total += len(r.Paths[c].Nodes)
	}
	dst = binary.AppendUvarint(dst, uint64(total))
	body := len(dst)
	dst = appendPathTrees(dst, r.Paths, nT, true)
	if total > maxPathExpansion*(len(dst)-body) {
		// Sharing compressed the paths past what a decoder will expand;
		// without sharing every node costs at least a byte.
		dst = appendPathTrees(dst[:body], r.Paths, nT, false)
	}
	return dst, nil
}

// appendPathTrees appends the paths row by row as one prefix tree per source:
// a path is its attach point — how many leading nodes it shares with an
// earlier path of its row, and (when any) which path — its suffix length,
// and the suffix as node-id deltas, the first against the attach node (the
// row's source when nothing is shared). The first path of a row has nothing
// to attach to and omits the attach point.
//
//opaque:noalloc
func appendPathTrees(dst []byte, paths []CandidatePath, nT int, share bool) []byte {
	for c := range paths {
		j := c % nT
		p := paths[c].Nodes
		row := paths[c-j : c]
		lcp, ref := 0, 0
		if share {
			lcp, ref = attachPoint(p, row)
		}
		if j > 0 {
			dst = binary.AppendUvarint(dst, uint64(lcp))
			if lcp > 0 {
				dst = binary.AppendUvarint(dst, uint64(ref))
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(p)-lcp))
		prev := paths[c].Source
		if lcp > 0 {
			prev = p[lcp-1]
		}
		for _, v := range p[lcp:] {
			dst = binary.AppendVarint(dst, int64(v)-int64(prev))
			prev = v
		}
	}
	return dst
}

// attachPoint returns the longest prefix p shares with any path of row (the
// earlier paths of its source) and the first path realising it. A candidate
// can only improve on the best so far if it agrees with p at the first node
// beyond it, so all but a few candidates are dismissed with one comparison.
//
//opaque:noalloc
func attachPoint(p []roadnet.NodeID, row []CandidatePath) (lcp, ref int) {
	for k := range row {
		q := row[k].Nodes
		if len(q) <= lcp || len(p) <= lcp || q[lcp] != p[lcp] {
			continue
		}
		n := 0
		for n < len(p) && n < len(q) && p[n] == q[n] {
			n++
		}
		if n > lcp {
			lcp, ref = n, k
		}
	}
	return lcp, ref
}

// ---- decoding ----

// wireReader consumes a payload body front to back. The first failure sticks
// and empties the reader, so decoders read field after field and check err
// once at the points where a value is about to size an allocation.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// end fails the reader when bytes remain after the message.
func (r *wireReader) end() {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Errorf("%w: %d trailing bytes", ErrPayloadMalformed, len(r.b)))
	}
}

func (r *wireReader) truncated(what string) {
	r.fail(fmt.Errorf("%w: reading %s", ErrPayloadTruncated, what))
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		if n == 0 {
			r.truncated("varint")
		} else {
			r.fail(fmt.Errorf("%w: varint overruns 64 bits", ErrPayloadMalformed))
		}
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a zigzag varint (the encoding/binary form).
func (r *wireReader) varint() int64 {
	ux := r.uvarint()
	if ux&1 != 0 {
		return ^int64(ux >> 1)
	}
	return int64(ux >> 1)
}

// int reads a signed varint that must fit the platform int.
func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("%w: integer %d overflows int", ErrPayloadMalformed, v))
		return 0
	}
	return int(v)
}

func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.truncated("8-byte field")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) bool() bool {
	if len(r.b) < 1 {
		r.truncated("flag")
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.fail(fmt.Errorf("%w: flag byte %d", ErrPayloadMalformed, v))
	}
	return v == 1
}

// count reads a list count and validates it against the bytes that remain,
// each element occupying at least minBytes of them — before the caller sizes
// an allocation with it.
func (r *wireReader) count(minBytes int, what string) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail(fmt.Errorf("%w: %d %s declared, %d bytes remain", ErrPayloadMalformed, n, what, len(r.b)))
		return 0
	}
	return int(n)
}

func (r *wireReader) str() string {
	n := r.count(1, "string bytes")
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// nodeID reads one delta-coded node id following prev.
func (r *wireReader) nodeID(prev roadnet.NodeID) roadnet.NodeID {
	v := int64(prev) + r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(fmt.Errorf("%w: node id %d outside int32", ErrPayloadMalformed, v))
		return 0
	}
	return roadnet.NodeID(v)
}

// fillIDs reads len(dst) delta-coded node ids into dst.
func (r *wireReader) fillIDs(dst []roadnet.NodeID) {
	prev := roadnet.NodeID(0)
	for i := range dst {
		prev = r.nodeID(prev)
		dst[i] = prev
	}
}

func (r *wireReader) ids() []roadnet.NodeID {
	n := r.count(1, "node ids")
	if n == 0 {
		return nil
	}
	out := make([]roadnet.NodeID, n)
	r.fillIDs(out)
	return out
}

func (r *wireReader) clientRequest() ClientRequest {
	m := ClientRequest{RequestID: r.uvarint(), User: r.str()}
	m.Source = r.nodeID(0)
	m.Dest = r.nodeID(0)
	m.FS = r.int()
	m.FT = r.int()
	return m
}

func (r *wireReader) clientReply() ClientReply {
	m := ClientReply{RequestID: r.uvarint(), Found: r.bool()}
	m.Cost = math.Float64frombits(r.u64())
	m.Error = r.str()
	m.Path = r.ids()
	return m
}

func (r *wireReader) serverQuery() ServerQuery {
	q := ServerQuery{QueryID: r.uvarint(), DistanceOnly: r.bool()}
	q.Sources = r.ids()
	q.Dests = r.ids()
	return q
}

// batchItemHead reads the fields a BatchItem carries before its reply.
func (r *wireReader) batchItemHead() BatchItem {
	return BatchItem{BatchID: r.uvarint(), Index: r.int(), Error: r.str()}
}

func (r *wireReader) batchQuery() BatchQuery {
	b := BatchQuery{BatchID: r.uvarint()}
	// A query is at least four bytes: id, flag, two counts.
	if n := r.count(4, "queries"); n > 0 {
		b.Queries = make([]ServerQuery, n)
		for i := range b.Queries {
			b.Queries[i] = r.serverQuery()
		}
	}
	return b
}

func (r *wireReader) weightUpdate() WeightUpdate {
	m := WeightUpdate{UpdateID: r.uvarint()}
	// A change is two varints and an 8-byte cost.
	if n := r.count(10, "weight changes"); n > 0 {
		m.Changes = make([]roadnet.ArcWeightChange, n)
		for i := range m.Changes {
			c := &m.Changes[i]
			c.From = r.nodeID(0)
			c.To = r.nodeID(0)
			c.NewCost = math.Float64frombits(r.u64())
		}
	}
	return m
}

func (r *wireReader) hello() Hello {
	h := Hello{Node: r.str(), Role: r.str(), Generation: r.uvarint(), ContentSum: r.u64(), Cells: r.int()}
	h.MaxInFlight = r.int()
	return h
}

// serverReply reads one columnar reply into rep: one []CandidatePath slab,
// one []NodeID arena every Nodes sub-slices (capacity clipped), nothing else.
func (r *wireReader) serverReply(rep *ServerReply) {
	rep.QueryID = r.uvarint()
	rep.Degraded = r.bool()
	rep.SettledNodes = r.int()
	rep.PageFaults = r.varint()
	rep.Generation = r.uvarint()
	rep.ContentSum = r.u64()
	nS := r.count(1, "source ids")
	nT := r.count(1, "destination ids")
	// Both counts are bounded by the payload length, so the 64-bit product
	// cannot overflow; every cell then costs at least its 8-byte table entry.
	cells := nS * nT
	if (nS == 0) != (nT == 0) || uint64(nS)*uint64(nT) > uint64(len(r.b)/8) {
		r.fail(fmt.Errorf("%w: %d×%d candidate table declared, %d bytes remain", ErrPayloadMalformed, nS, nT, len(r.b)))
	}
	if r.err != nil || cells == 0 {
		return
	}
	paths := make([]CandidatePath, cells)
	prev := roadnet.NodeID(0)
	for i := 0; i < nS; i++ {
		prev = r.nodeID(prev)
		paths[i*nT].Source = prev
	}
	prev = 0
	for j := 0; j < nT; j++ {
		prev = r.nodeID(prev)
		paths[j].Dest = prev
	}
	if len(r.b) < (cells+7)/8+8*cells {
		r.truncated("candidate table")
		return
	}
	bitmap := r.b[:(cells+7)/8]
	r.b = r.b[len(bitmap):]
	for c := range paths {
		p := &paths[c]
		p.Source, p.Dest = paths[c-c%nT].Source, paths[c%nT].Dest
		p.Found = bitmap[c/8]&(1<<(c%8)) != 0
		p.Cost = math.Float64frombits(binary.BigEndian.Uint64(r.b[8*c:]))
	}
	r.b = r.b[8*cells:]
	if !rep.Degraded {
		r.pathTrees(paths, nT)
	}
	if r.err == nil {
		rep.Paths = paths
	}
}

// pathTrees reads the per-source prefix trees into one exactly-sized arena,
// bounded — as the encoder bounds it — by the bytes the trees themselves
// occupy: a reply's paths are the last thing in its payload.
func (r *wireReader) pathTrees(paths []CandidatePath, nT int) {
	total := r.uvarint()
	if r.err == nil && total > uint64(maxPathExpansion*len(r.b)) {
		r.fail(fmt.Errorf("%w: %d path nodes declared in %d bytes", ErrPayloadMalformed, total, len(r.b)))
	}
	if r.err != nil {
		return
	}
	arena := make([]roadnet.NodeID, total)
	off := 0
	for c := range paths {
		j := c % nT
		var shared []roadnet.NodeID
		if j > 0 {
			if lcp := r.uvarint(); lcp > 0 {
				ref := r.uvarint()
				if ref >= uint64(j) || lcp > uint64(len(paths[c-j+int(ref)].Nodes)) {
					r.fail(fmt.Errorf("%w: attach point %d nodes into path %d of a row at path %d", ErrPayloadMalformed, lcp, ref, j))
					return
				}
				shared = paths[c-j+int(ref)].Nodes[:lcp]
			}
		}
		n := r.count(1, "path nodes")
		if r.err != nil {
			return
		}
		if len(shared)+n > len(arena)-off {
			r.fail(fmt.Errorf("%w: paths overrun the %d nodes declared", ErrPayloadMalformed, len(arena)))
			return
		}
		start := off
		off += copy(arena[off:], shared)
		prev := paths[c].Source
		if len(shared) > 0 {
			prev = shared[len(shared)-1]
		}
		for ; n > 0; n-- {
			prev = r.nodeID(prev)
			arena[off] = prev
			off++
		}
		if off > start {
			paths[c].Nodes = arena[start:off:off]
		}
	}
	if r.err == nil && off != len(arena) {
		r.fail(fmt.Errorf("%w: paths fill %d of the %d nodes declared", ErrPayloadMalformed, off, len(arena)))
	}
}
