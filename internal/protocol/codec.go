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
//     suffix beyond. A full decode takes exactly two allocations, a
//     []CandidatePath slab and a []NodeID arena every Nodes sub-slices.
//   - A suffix is written in one of two forms, and the query picks it. For
//     a query that names no map, as node-id deltas. For one that names the
//     asker's map (ServerQuery.Topology), as out-arc ordinals on that map: the
//     attach points and suffix lengths come first, then every suffix edge as
//     a fixed-width index into the out-arcs of the node it leaves, in one
//     bit stream — about 3 bits an edge on a road map, where a delta costs 8.
//     Such a body names its map's topology checksum, and is read only
//     against a map of that checksum; resolving an ordinal is the walk
//     check, so a path read out of one is a walk on the reader's map.
//   - A reply's header — QueryID, Degraded, SettledNodes, PageFaults,
//     Generation, ContentSum — and its shape precede its table, so a relay
//     reads the header alone and holds the body as bytes (HeldReply): the
//     fleet router forwards shard replies without decoding or re-encoding a
//     path. The obfuscator holds them too and reads only its members' cells
//     (ServerReply.ReadCells): one pass that validates the whole body, as the
//     full decode does, through the same tree walker, and materialises only
//     the paths asked for, each exactly sized. In the ordinal form it skips
//     the unread suffixes by offset and resolves only the ordinals along the
//     attach chains of the paths it materialises. Held bodies alias their
//     payload; every decoded message and every cell read owns its memory.
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
	"math/bits"
	"slices"
	"sync"

	"opaque/internal/roadnet"
)

// CodecVersion is the payload encoding version this build speaks. It rides
// in every payload header and is checked at the handshake: peers speaking
// different versions refuse each other with ErrHandshake instead of
// misreading each other's bytes.
const CodecVersion = 4

// payloadHeaderLen is the fixed header every payload starts with.
const payloadHeaderLen = 10

// maxPathExpansion bounds the path nodes a ServerReply may decode to per byte
// of its encoded paths; without it a hostile peer could describe gigabytes of
// shared-prefix paths in a few kilobytes. Real replies sit around 2 nodes
// per byte; an encoder whose reply would exceed the bound (hundreds of
// destinations down one corridor) writes it unshared, which always fits.
const maxPathExpansion = 64

// The byte after a reply's QueryID says how its paths are written.
const (
	pathsAsIDs  = 0 // node-id deltas
	pathsNone   = 1 // none: a Degraded, distance-only reply
	pathsAsArcs = 2 // out-arc ordinals on the map whose topology checksum follows
)

// maxArcWidth bounds the bits of one out-arc ordinal; a wider one could not
// index an arc of any map.
const maxArcWidth = 32

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
	// ErrNoCell reports a cell read outside the reply's |S|×|T| table.
	ErrNoCell = errors.New("protocol: no such cell in the reply's candidate table")
	// ErrTopologyMismatch reports two sides that do not hold the same road
	// map: a server refuses a query naming another map's topology (the
	// refusal reaches the asker as a RemoteError that matches it), and a
	// reply whose paths are out-arc ordinals is read only against a map of
	// the topology it names.
	ErrTopologyMismatch = errors.New("protocol: road map topology mismatch")
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
// result shares no memory with payload. It holds no map, so a reply whose
// paths are out-arc ordinals fails with ErrTopologyMismatch: hold it
// (ReadHeldReply) and read it against its map.
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
		r.serverReply(&rep, nil)
		msg = rep
	case TypeBatchQuery:
		msg = r.batchQuery()
	case TypeBatchItem:
		item := r.batchItemHead()
		r.serverReply(&item.Reply, nil)
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
// HeldReply), returning the header deadline too. Only the reply header and
// the table's shape are read: a reply whose table is malformed is held, and
// fails where it is decoded or a cell of it is read.
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

// holdReply reads a reply body's header fields and table shape and holds the
// body. It allocates nothing.
func holdReply(body []byte) (HeldReply, error) {
	r := wireReader{b: body}
	var rep ServerReply
	r.replyHeader(&rep)
	h := HeldReply{QueryID: rep.QueryID, Degraded: rep.Degraded, SettledNodes: rep.SettledNodes, PageFaults: rep.PageFaults,
		Generation: rep.Generation, ContentSum: rep.ContentSum}
	h.nS, h.nT = r.count(1, "source ids"), r.count(1, "destination ids")
	if r.err != nil {
		return HeldReply{}, fmt.Errorf("reading reply header: %w", r.err)
	}
	h.body = body
	return h, nil
}

// Decode decodes the held body into the ServerReply it carries. Paths
// written as out-arc ordinals are resolved on g, which must be a map of the
// topology the body names (ErrTopologyMismatch otherwise), and the result's
// Map is g; node-id paths need no map, and g may be nil. The result shares
// no memory with the held bytes.
func (h HeldReply) Decode(g *roadnet.Graph) (ServerReply, error) { return decodeReplyBody(h.body, g) }

// Reply returns the ServerReply that carries h: its header fields, no Paths,
// and h itself as Held.
func (h HeldReply) Reply() ServerReply {
	return ServerReply{QueryID: h.QueryID, SettledNodes: h.SettledNodes, PageFaults: h.PageFaults,
		Generation: h.Generation, ContentSum: h.ContentSum, Degraded: h.Degraded, Held: h}
}

// Cells returns |S|·|T|, the number of cells of the reply's candidate table,
// from whichever form the reply has.
func (r ServerReply) Cells() int {
	if r.Held.body != nil {
		return r.Held.nS * r.Held.nT
	}
	return len(r.Paths)
}

// ReadCells reads cell at[k] = (i, j) of the reply's |S|×|T| candidate table
// into dst[k] for every k (dst is as long as at), from whichever form the
// reply has. A held reply is read in one pass that validates its whole body
// as Decode(g) does, and materialises only the cells asked for; a decoded
// one is copied out of Paths. Held paths written as out-arc ordinals are
// resolved on g, which must be a map of the topology the body names
// (ErrTopologyMismatch otherwise), and only along the attach chains of the
// cells read: the read fails exactly when Decode(g) does, except that a bad
// ordinal fails it only when a cell read crosses it. Node-id paths need no
// map, and g may be nil. Either way every Nodes is an exactly-sized slice
// the caller owns, nil when empty, so the reply can be dropped as soon as
// its cells are read; an unreachable cell allocates nothing.
func (r ServerReply) ReadCells(g *roadnet.Graph, dst []CandidatePath, at [][2]int) error {
	if r.Held.body != nil {
		return readCells(r.Held.body, g, dst, at)
	}
	nS, nT, ok := replyGrid(r.Paths)
	if !ok {
		return fmt.Errorf("%w: query %d, %d paths", ErrReplyShape, r.QueryID, len(r.Paths))
	}
	for k, ij := range at {
		i, j := ij[0], ij[1]
		if i < 0 || i >= nS || j < 0 || j >= nT {
			return fmt.Errorf("%w: cell (%d, %d) of a %d×%d table", ErrNoCell, i, j, nS, nT)
		}
		c := r.Paths[i*nT+j]
		nodes := c.Nodes
		c.Nodes = nil
		if len(nodes) > 0 {
			c.Nodes = make([]roadnet.NodeID, len(nodes))
			copy(c.Nodes, nodes)
		}
		dst[k] = c
	}
	return nil
}

// Cell is ReadCells for the one cell (i, j), without a map: what a peer
// whose queries name no map (ServerQuery.Topology 0) reads its replies with.
func (r ServerReply) Cell(i, j int) (CandidatePath, error) {
	var c [1]CandidatePath
	err := r.ReadCells(nil, c[:], [][2]int{{i, j}})
	return c[0], err
}

// decodeReplyBody decodes one whole reply body, trailing bytes refused.
func decodeReplyBody(body []byte, g *roadnet.Graph) (ServerReply, error) {
	r := wireReader{b: body}
	var rep ServerReply
	r.serverReply(&rep, g)
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
	dst = binary.AppendUvarint(dst, q.Topology)
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

// appendBody appends a reply in columnar form (see the file comment), or
// the held body when the reply holds one. Its paths are out-arc ordinals on
// Map when it has one, node-id deltas otherwise.
//
//opaque:noalloc
func (r ServerReply) appendBody(dst []byte) ([]byte, error) {
	if r.Held.body != nil {
		return r.Held.appendBody(dst)
	}
	nS, nT, ok := replyGrid(r.Paths)
	if !ok {
		//opaque:allow(noalloc) refusal path: a handler bug, the reply is never sent
		return dst, fmt.Errorf("%w: query %d, %d paths", ErrReplyShape, r.QueryID, len(r.Paths))
	}
	dst = binary.AppendUvarint(dst, r.QueryID)
	switch {
	case r.Degraded:
		dst = append(dst, pathsNone) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	case r.Map != nil:
		dst = append(dst, pathsAsArcs) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
		dst = appendU64(dst, r.Map.TopologyChecksum())
	default:
		dst = append(dst, pathsAsIDs) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	}
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
	dst, err := appendPaths(dst, r.Paths, nT, r.Map, true)
	if err == nil && total > maxPathExpansion*(len(dst)-body) {
		// Sharing compressed the paths past what a decoder will expand;
		// without sharing every node costs at least a byte, or a bit.
		dst, err = appendPaths(dst[:body], r.Paths, nT, r.Map, false)
	}
	return dst, err
}

// appendPaths appends the paths as node-id deltas (g nil) or as out-arc
// ordinals on g.
//
//opaque:noalloc
func appendPaths(dst []byte, paths []CandidatePath, nT int, g *roadnet.Graph, share bool) ([]byte, error) {
	if g == nil {
		return appendPathTrees(dst, paths, nT, share, true), nil
	}
	return appendArcPaths(dst, paths, nT, g, share)
}

// appendPathTrees appends the paths row by row as one prefix tree per source:
// a path is its attach point — how many leading nodes it shares with an
// earlier path of its row, and (when any) which path — its suffix length,
// and, with ids, the suffix as node-id deltas, the first against the attach
// node (the row's source when nothing is shared). The first path of a row
// has nothing to attach to and omits the attach point.
//
//opaque:noalloc
func appendPathTrees(dst []byte, paths []CandidatePath, nT int, share, ids bool) []byte {
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
		if !ids {
			continue
		}
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

// appendArcPaths appends the paths as appendPathTrees lays them out without
// their suffixes — attach points and suffix lengths — behind a width byte w,
// then every suffix edge as its ordinal among the out-arcs of g's node it
// leaves, w bits each, in one LSB-first bit stream padded with zero bits to
// a byte. w is the fewest bits that index the out-arcs of any node of g, at
// least 1, so an unshared path costs at least a bit a node. A path's first
// node is implied: node L−1 of its attach path, or the row's source when it
// shares none. Paths that do not walk g are refused.
//
//opaque:noalloc
func appendArcPaths(dst []byte, paths []CandidatePath, nT int, g *roadnet.Graph, share bool) ([]byte, error) {
	w := bits.Len(uint(max(g.MaxOutDegree(), 2) - 1))
	dst = append(dst, byte(w)) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	at := len(dst)
	dst = appendPathTrees(dst, paths, nT, share, false)
	sh := shapeReader{b: dst[at:], nT: nT}
	var acc uint64
	n := 0
	for c := range paths {
		from, to := sh.next(c)
		p := paths[c].Nodes
		if len(p) > 0 && p[0] != paths[c].Source {
			//opaque:allow(noalloc) refusal path: a handler bug, the reply is never sent
			return dst, fmt.Errorf("%w: cell %d: path starts at %d, not at its source %d", ErrTopologyMismatch, c, p[0], paths[c].Source)
		}
		if from >= to {
			continue
		}
		// Every node after the first is the head of an arc of g.
		u := p[from-1]
		if !g.ValidNode(u) {
			//opaque:allow(noalloc) refusal path: a handler bug, the reply is never sent
			return dst, fmt.Errorf("%w: cell %d: node %d is not on the reply's map", ErrTopologyMismatch, c, u)
		}
		for _, v := range p[from:to] {
			ord := arcOrdinal(g.Arcs(u), v)
			if ord < 0 {
				//opaque:allow(noalloc) refusal path: a handler bug, the reply is never sent
				return dst, fmt.Errorf("%w: cell %d: no arc from %d to %d on the reply's map", ErrTopologyMismatch, c, u, v)
			}
			acc |= uint64(ord) << n
			for n += w; n >= 8; n -= 8 {
				dst = append(dst, byte(acc)) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
				acc >>= 8
			}
			u = v
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc)) //opaque:allow(noalloc) appends into the caller's reused write buffer; no growth once warm
	}
	return dst, nil
}

// arcOrdinal returns the index of the first arc of arcs that ends at v, -1
// when none does.
//
//opaque:noalloc
func arcOrdinal(arcs []roadnet.Arc, v roadnet.NodeID) int {
	for i := range arcs {
		if arcs[i].To == v {
			return i
		}
	}
	return -1
}

// arcSpan returns the positions [from, to) of the nodes whose incoming edge
// the suffix of a path carries, for a path that shares lcp nodes and has n
// more: every suffix node but a row root's first, which is the row's
// source. to ≤ from means none.
func arcSpan(lcp, n int) (from, to int) { return max(lcp, 1), lcp + n }

// shapeReader re-reads the attach points and suffix lengths appendPathTrees
// wrote without ids, one path at a time. The bytes are the encoder's own,
// so it makes no checks.
type shapeReader struct {
	b  []byte
	nT int
}

// next returns the arcSpan of path c.
//
//opaque:noalloc
func (s *shapeReader) next(c int) (from, to int) {
	lcp := 0
	if c%s.nT > 0 {
		lcp = s.uvarint()
		if lcp > 0 {
			s.uvarint()
		}
	}
	return arcSpan(lcp, s.uvarint())
}

//opaque:noalloc
func (s *shapeReader) uvarint() int {
	v, n := binary.Uvarint(s.b)
	s.b = s.b[n:]
	return int(v)
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
	q := ServerQuery{QueryID: r.uvarint(), DistanceOnly: r.bool(), Topology: r.uvarint()}
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
	// A query is at least five bytes: id, flag, topology, two counts.
	if n := r.count(5, "queries"); n > 0 {
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
	return Hello{Node: r.str(), Role: r.str(), Generation: r.uvarint(), ContentSum: r.u64(), MaxInFlight: r.int()}
}

// replyTable is a reply body read up to its path trees: the table's shape
// and the regions holding its id lists, found bitmap and cost table, every
// id already checked, and the form of its paths. Reading one allocates
// nothing.
type replyTable struct {
	nS, nT         int
	sources, dests []byte // delta-coded node ids, nS and nT of them
	bitmap, costs  []byte
	arcs           bool   // the paths are out-arc ordinals
	topology       uint64 // on a map of this topology checksum
}

// replyHeader reads a reply body's header fields into rep and returns the
// form of its paths and, for out-arc ordinals, their map's topology
// checksum.
func (r *wireReader) replyHeader(rep *ServerReply) (form byte, topology uint64) {
	rep.QueryID = r.uvarint()
	if len(r.b) < 1 {
		r.truncated("paths form")
		return 0, 0
	}
	form, r.b = r.b[0], r.b[1:]
	switch form {
	case pathsAsIDs, pathsNone:
	case pathsAsArcs:
		topology = r.u64()
	default:
		r.fail(fmt.Errorf("%w: paths form %d", ErrPayloadMalformed, form))
	}
	rep.Degraded = form == pathsNone
	rep.SettledNodes = r.int()
	rep.PageFaults = r.varint()
	rep.Generation = r.uvarint()
	rep.ContentSum = r.u64()
	return form, topology
}

// replyTable reads a reply body's header into rep and its table up to the
// path trees.
func (r *wireReader) replyTable(rep *ServerReply) replyTable {
	form, topology := r.replyHeader(rep)
	t := replyTable{nS: r.count(1, "source ids"), nT: r.count(1, "destination ids"), arcs: form == pathsAsArcs, topology: topology}
	// Both counts are bounded by the payload length, so the 64-bit product
	// cannot overflow; every cell then costs at least its 8-byte table entry.
	cells := t.nS * t.nT
	if (t.nS == 0) != (t.nT == 0) || uint64(t.nS)*uint64(t.nT) > uint64(len(r.b)/8) {
		r.fail(fmt.Errorf("%w: %d×%d candidate table declared, %d bytes remain", ErrPayloadMalformed, t.nS, t.nT, len(r.b)))
	}
	t.sources = r.skipIDs(t.nS)
	t.dests = r.skipIDs(t.nT)
	if r.err == nil && len(r.b) < (cells+7)/8+8*cells {
		r.truncated("candidate table")
	}
	if r.err != nil {
		return replyTable{}
	}
	t.bitmap, t.costs = r.b[:(cells+7)/8], r.b[(cells+7)/8:(cells+7)/8+8*cells]
	r.b = r.b[len(t.bitmap)+len(t.costs):]
	return t
}

// bindMap fails the reader when t's paths are out-arc ordinals and g is not
// a map of the topology they name.
func (r *wireReader) bindMap(t *replyTable, g *roadnet.Graph) {
	if r.err != nil || !t.arcs {
		return
	}
	if g == nil {
		r.fail(fmt.Errorf("%w: the paths are out-arc ordinals on map %016x, read without a map", ErrTopologyMismatch, t.topology))
	} else if sum := g.TopologyChecksum(); sum != t.topology {
		r.fail(fmt.Errorf("%w: the paths are out-arc ordinals on map %016x, read against map %016x", ErrTopologyMismatch, t.topology, sum))
	}
}

// skipIDs reads past n delta-coded node ids, checking each, and returns the
// bytes they occupy.
func (r *wireReader) skipIDs(n int) []byte {
	start := r.b
	prev := roadnet.NodeID(0)
	for ; n > 0; n-- {
		prev = r.nodeID(prev)
	}
	return start[:len(start)-len(r.b)]
}

// nthID returns id k of a delta-coded id list replyTable has checked.
func nthID(ids []byte, k int) roadnet.NodeID {
	r := wireReader{b: ids}
	v := r.nodeID(0)
	for ; k > 0; k-- {
		v = r.nodeID(v)
	}
	return v
}

// cell returns cell c's found bit and cost.
func (t *replyTable) cell(c int) (bool, float64) {
	return t.bitmap[c/8]&(1<<(c%8)) != 0, math.Float64frombits(binary.BigEndian.Uint64(t.costs[8*c:]))
}

// serverReply reads one columnar reply into rep: one []CandidatePath slab,
// one []NodeID arena every Nodes sub-slices (capacity clipped), nothing else.
// Out-arc ordinals are resolved on g.
func (r *wireReader) serverReply(rep *ServerReply, g *roadnet.Graph) {
	t := r.replyTable(rep)
	r.bindMap(&t, g)
	if r.err != nil {
		return
	}
	if t.arcs {
		rep.Map = g
	}
	if t.nS == 0 {
		return
	}
	paths := make([]CandidatePath, t.nS*t.nT)
	ids := wireReader{b: t.sources}
	prev := roadnet.NodeID(0)
	for i := 0; i < t.nS; i++ {
		prev = ids.nodeID(prev)
		paths[i*t.nT].Source = prev
	}
	ids, prev = wireReader{b: t.dests}, 0
	for j := 0; j < t.nT; j++ {
		prev = ids.nodeID(prev)
		paths[j].Dest = prev
	}
	for c := range paths {
		p := &paths[c]
		p.Source, p.Dest = paths[c-c%t.nT].Source, paths[c%t.nT].Dest
		p.Found, p.Cost = t.cell(c)
	}
	if !rep.Degraded {
		r.pathTrees(paths, &t, g)
	}
	if r.err == nil {
		rep.Paths = paths
	}
}

// treeWalker reads a reply's path trees (see appendPathTrees) path by path
// and makes every check the format allows: an attach point names an earlier
// path of its row and at most that path's length, the paths fit the node
// total the reply declares — which maxPathExpansion bounds by the bytes the
// trees occupy, a reply's paths being the last thing in its payload — every
// node id fits int32, and the paths fill the total exactly. Where the nodes
// go is its caller's business: the full decode lays whole paths into one
// arena, the cell reader keeps each row's suffixes. Both read through this
// one walker, so they refuse exactly the same bodies. In the out-arc form
// the walker reads the shapes alone, and arcStream the ordinals behind them.
type treeWalker struct {
	r           *wireReader
	total, left int            // nodes declared; of those, not yet claimed by a path
	width       int            // bits per out-arc ordinal; 0 for node-id paths
	sources     wireReader     // the table's source ids, one read per row
	source      roadnet.NodeID // the current row's source
}

// treeWalker reads the node total ahead of t's path trees, and the ordinal
// width when they are out-arc ordinals.
func (r *wireReader) treeWalker(t *replyTable) treeWalker {
	total := r.uvarint()
	if r.err == nil && total > uint64(maxPathExpansion*len(r.b)) {
		r.fail(fmt.Errorf("%w: %d path nodes declared in %d bytes", ErrPayloadMalformed, total, len(r.b)))
	}
	width := 0
	if t.arcs && r.err == nil {
		if len(r.b) == 0 {
			r.truncated("ordinal width")
		} else if width, r.b = int(r.b[0]), r.b[1:]; width < 1 || width > maxArcWidth {
			r.fail(fmt.Errorf("%w: %d-bit out-arc ordinals", ErrPayloadMalformed, width))
		}
	}
	if r.err != nil {
		return treeWalker{r: r}
	}
	return treeWalker{r: r, total: int(total), left: int(total), width: width, sources: wireReader{b: t.sources}}
}

// again returns a walker over the shapes w read from shapes on: they are
// walked a second time, every check already passed.
func (w *treeWalker) again(shapes *wireReader, t *replyTable) treeWalker {
	return treeWalker{r: shapes, total: w.total, left: w.total, width: w.width, sources: wireReader{b: t.sources}}
}

// next reads the head of path j of the current row (j = 0 starts the next
// row): it shares its first lcp nodes with earlier path ref of the row, and
// n suffix nodes follow. rowLen(k) is the length of earlier path k. ok is
// false once the reader has failed.
func (w *treeWalker) next(j int, rowLen func(k int) int) (lcp, ref, n int, ok bool) {
	r := w.r
	if j == 0 {
		w.source = w.sources.nodeID(w.source)
	} else if l := r.uvarint(); l > 0 {
		k := r.uvarint()
		if k >= uint64(j) || l > uint64(rowLen(int(k))) {
			r.fail(fmt.Errorf("%w: attach point %d nodes into path %d of a row at path %d", ErrPayloadMalformed, l, k, j))
			return 0, 0, 0, false
		}
		lcp, ref = int(l), int(k)
	}
	suffix := r.uvarint()
	if r.err != nil {
		return 0, 0, 0, false
	}
	if lcp > w.left || suffix > uint64(w.left-lcp) {
		r.fail(fmt.Errorf("%w: paths overrun the %d nodes declared", ErrPayloadMalformed, w.total))
		return 0, 0, 0, false
	}
	n = int(suffix)
	w.left -= lcp + n
	return lcp, ref, n, true
}

// suffix reads the suffix of the path next returned into dst, the first
// node as a delta from prev: the path's last shared node, or the row's
// source when it shares none. Almost every delta along a road is one byte,
// so those are read inline; any other goes through nodeID and its checks.
func (w *treeWalker) suffix(dst []roadnet.NodeID, prev roadnet.NodeID) {
	b := w.r.b
	for k := range dst {
		if len(b) > 0 && b[0] < 0x80 {
			d := int64(b[0] >> 1)
			if b[0]&1 != 0 {
				d = ^d
			}
			if v := int64(prev) + d; v >= math.MinInt32 && v <= math.MaxInt32 {
				prev, b = roadnet.NodeID(v), b[1:]
				dst[k] = prev
				continue
			}
		}
		w.r.b = b
		prev = w.r.nodeID(prev)
		b = w.r.b
		dst[k] = prev
	}
	w.r.b = b
}

// end fails the reader unless the paths filled the declared total.
func (w *treeWalker) end() {
	if w.r.err == nil && w.left != 0 {
		w.r.fail(fmt.Errorf("%w: paths fill %d of the %d nodes declared", ErrPayloadMalformed, w.total-w.left, w.total))
	}
}

// arcStream is a reply's out-arc ordinals: edge e's is bits [e·w, (e+1)·w)
// of b, LSB first, so any one is read without the others.
type arcStream struct {
	b []byte
	w int
}

// arcStream takes the ordinals of edges path edges behind the shapes the
// walker read: the rest of the reply, exactly ⌈edges·w/8⌉ bytes, the bits
// past the last ordinal zero. So every check but the ordinals' own is made
// before any ordinal is resolved.
func (w *treeWalker) arcStream(edges int) arcStream {
	r := w.r
	if r.err != nil {
		return arcStream{}
	}
	bits := edges * w.width
	n := (bits + 7) / 8
	if len(r.b) < n {
		r.truncated("out-arc ordinals")
		return arcStream{}
	}
	if len(r.b) > n {
		r.fail(fmt.Errorf("%w: %d bytes behind %d out-arc ordinals of %d bits", ErrPayloadMalformed, len(r.b)-n, edges, w.width))
		return arcStream{}
	}
	s := arcStream{b: r.b[:n], w: w.width}
	if bits%8 != 0 && s.b[n-1]>>(bits%8) != 0 {
		r.fail(fmt.Errorf("%w: set bits behind the last out-arc ordinal", ErrPayloadMalformed))
		return arcStream{}
	}
	r.b = r.b[n:]
	return s
}

// at returns edge e's ordinal. A width of at most 32 bits at a bit offset of
// at most 7 lies within five bytes.
func (s arcStream) at(e int) uint64 {
	bit := e * s.w
	var v uint64
	for i, k := bit/8, 0; k < 5 && i < len(s.b); i, k = i+1, k+1 {
		v |= uint64(s.b[i]) << (8 * k)
	}
	return v >> (bit % 8) & (1<<s.w - 1)
}

// step follows out-arc ord of u on g and returns its head. It fails the
// reader when u is not a node of g or has no such arc.
func (r *wireReader) step(g *roadnet.Graph, u roadnet.NodeID, ord uint64) roadnet.NodeID {
	if !g.ValidNode(u) {
		r.fail(fmt.Errorf("%w: a path leaves node %d, which is not on the map", ErrPayloadMalformed, u))
		return 0
	}
	arcs := g.Arcs(u)
	if ord >= uint64(len(arcs)) {
		r.fail(fmt.Errorf("%w: out-arc %d of node %d, which has %d", ErrPayloadMalformed, ord, u, len(arcs)))
		return 0
	}
	return arcs[ord].To
}

// pathTrees reads the per-source prefix trees into one exactly-sized arena:
// each path's shared prefix is copied from the earlier path it attaches to,
// its suffix decoded in place behind it — node-id deltas as they come, or
// out-arc ordinals on g once every shape is read.
func (r *wireReader) pathTrees(paths []CandidatePath, t *replyTable, g *roadnet.Graph) {
	w := r.treeWalker(t)
	if r.err != nil {
		return
	}
	arena := make([]roadnet.NodeID, w.total)
	shapes := *r
	off, edges := 0, 0
	for c := range paths {
		j := c % t.nT
		row := paths[c-j : c]
		lcp, ref, n, ok := w.next(j, func(k int) int { return len(row[k].Nodes) })
		if !ok {
			return
		}
		start := off
		if t.arcs {
			from, to := arcSpan(lcp, n)
			edges += max(to-from, 0)
			off += lcp + n
		} else {
			prev := w.source
			if lcp > 0 {
				off += copy(arena[off:], row[ref].Nodes[:lcp])
				prev = arena[off-1]
			}
			w.suffix(arena[off:off+n], prev)
			off += n
		}
		if off > start {
			paths[c].Nodes = arena[start:off:off]
		}
	}
	w.end()
	if !t.arcs {
		return
	}
	ords := w.arcStream(edges)
	if r.err != nil {
		return
	}
	again, e := w.again(&shapes, t), 0
	for c := range paths {
		j := c % t.nT
		row := paths[c-j : c]
		lcp, ref, n, _ := again.next(j, func(k int) int { return len(row[k].Nodes) })
		nodes := paths[c].Nodes
		u := again.source
		if lcp > 0 {
			copy(nodes, row[ref].Nodes[:lcp])
			u = nodes[lcp-1]
		} else if n > 0 {
			nodes[0] = u
		}
		from, to := arcSpan(lcp, n)
		for k := from; k < to; k, e = k+1, e+1 {
			u = r.step(g, u, ords.at(e))
			nodes[k] = u
		}
		if r.err != nil {
			return
		}
	}
}

// rowPath is one path of a row as the cell reader keeps it: its first lcp
// nodes are path ref's, the rest — its suffix — sit at off in the row's
// suffix buffer, or, for out-arc ordinals, are edges off on of the reply's
// stream. ref is re-anchored when the path is read, to the nearest path down
// the attach chain whose own suffix holds node lcp-1, so lcp falls strictly
// along every chain of refs.
type rowPath struct{ lcp, ref, len, off int }

// rowScratch is the cell reader's state, pooled: steady-state cell reads
// allocate only the paths they return.
type rowScratch struct {
	paths    []rowPath
	suffixes []roadnet.NodeID
	chain    []int
}

var rowScratches = sync.Pool{New: func() any { return new(rowScratch) }}

// readCells reads the cells at of a reply body into dst (as long as at),
// validating the whole body as decodeReplyBody does but materialising only
// those cells' paths.
func readCells(body []byte, g *roadnet.Graph, dst []CandidatePath, at [][2]int) error {
	r := wireReader{b: body}
	var head ServerReply
	t := r.replyTable(&head)
	r.bindMap(&t, g)
	if r.err != nil {
		return fmt.Errorf("reading reply cells: %w", r.err)
	}
	for k, ij := range at {
		i, j := ij[0], ij[1]
		if i < 0 || i >= t.nS || j < 0 || j >= t.nT {
			return fmt.Errorf("%w: cell (%d, %d) of a %d×%d table", ErrNoCell, i, j, t.nS, t.nT)
		}
		dst[k] = CandidatePath{Source: nthID(t.sources, i), Dest: nthID(t.dests, j)}
		dst[k].Found, dst[k].Cost = t.cell(i*t.nT + j)
	}
	if !head.Degraded && t.nS > 0 {
		sc := rowScratches.Get().(*rowScratch)
		if t.arcs {
			r.arcCells(&t, g, sc, dst, at)
		} else {
			r.cellPaths(&t, sc, dst, at)
		}
		rowScratches.Put(sc)
	}
	r.end()
	if r.err != nil {
		return fmt.Errorf("reading reply cells: %w", r.err)
	}
	return nil
}

// cellPaths walks every row's prefix tree of node-id paths and sets
// dst[k].Nodes to the path of cell at[k], each in an exactly-sized slice of
// its own (nil when empty). A row's suffixes go into a reused buffer; a
// shared prefix is reached through the attach chain, never copied, so a row
// costs the bytes it occupies whatever it expands to.
func (r *wireReader) cellPaths(t *replyTable, sc *rowScratch, dst []CandidatePath, at [][2]int) {
	w := r.treeWalker(t)
	if r.err != nil {
		return
	}
	for row := 0; row < t.nS; row++ {
		paths, suffixes := sc.paths[:0], sc.suffixes[:0]
		for k := 0; k < t.nT; k++ {
			lcp, ref, n, ok := w.next(k, func(q int) int { return paths[q].len })
			if !ok {
				return
			}
			prev := w.source
			if lcp > 0 {
				for paths[ref].lcp >= lcp {
					ref = paths[ref].ref
				}
				prev = suffixes[paths[ref].off+lcp-1-paths[ref].lcp]
			}
			off := len(suffixes)
			suffixes = slices.Grow(suffixes, n)[:off+n]
			w.suffix(suffixes[off:], prev)
			paths = append(paths, rowPath{lcp: lcp, ref: ref, len: lcp + n, off: off})
		}
		for k, ij := range at {
			if ij[0] != row || paths[ij[1]].len == 0 {
				continue
			}
			out := make([]roadnet.NodeID, paths[ij[1]].len)
			// Fill back to front: each path down the chain supplies the nodes
			// between its own attach point and the next one up.
			for need, p := len(out), ij[1]; need > 0; need, p = paths[p].lcp, paths[p].ref {
				copy(out[paths[p].lcp:need], suffixes[paths[p].off:])
			}
			dst[k].Nodes = out
		}
		sc.paths, sc.suffixes = paths, suffixes
	}
	w.end()
}

// arcCells reads every row's shapes of out-arc ordinal paths, then sets
// dst[k].Nodes to the path of cell at[k] as cellPaths does. The ordinals
// have a fixed width, so a path's suffix is found by offset: only those
// along the attach chain of a cell read are resolved on g, front to back
// from the row's source, and the rest are never looked at.
func (r *wireReader) arcCells(t *replyTable, g *roadnet.Graph, sc *rowScratch, dst []CandidatePath, at [][2]int) {
	w := r.treeWalker(t)
	if r.err != nil {
		return
	}
	paths := sc.paths[:0]
	edges := 0
rows:
	for row := 0; row < t.nS; row++ {
		base := len(paths)
		for k := 0; k < t.nT; k++ {
			lcp, ref, n, ok := w.next(k, func(q int) int { return paths[base+q].len })
			if !ok {
				break rows
			}
			for lcp > 0 && paths[base+ref].lcp >= lcp {
				ref = paths[base+ref].ref
			}
			paths = append(paths, rowPath{lcp: lcp, ref: ref, len: lcp + n, off: edges})
			from, to := arcSpan(lcp, n)
			edges += max(to-from, 0)
		}
	}
	sc.paths = paths
	w.end()
	ords := w.arcStream(edges)
	if r.err != nil {
		return
	}
	for k, ij := range at {
		row := paths[ij[0]*t.nT : (ij[0]+1)*t.nT]
		if row[ij[1]].len == 0 {
			continue
		}
		chain := sc.chain[:0]
		for p := ij[1]; ; p = row[p].ref {
			chain = append(chain, p)
			if row[p].lcp == 0 {
				break
			}
		}
		sc.chain = chain
		out := make([]roadnet.NodeID, row[ij[1]].len)
		u := dst[k].Source
		out[0] = u
		// Fill front to back: each path up the chain supplies the nodes
		// between its own attach point and the next one down.
		for c := len(chain) - 1; c >= 0; c-- {
			p := row[chain[c]]
			end := p.len
			if c > 0 {
				end = row[chain[c-1]].lcp
			}
			from, _ := arcSpan(p.lcp, 0)
			for pos := from; pos < end; pos++ {
				u = r.step(g, u, ords.at(p.off+pos-from))
				out[pos] = u
			}
		}
		if r.err != nil {
			return
		}
		dst[k].Nodes = out
	}
}
