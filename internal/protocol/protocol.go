// Package protocol defines the messages exchanged between the OPAQUE roles
// (client, obfuscator, fleet router, directions search server), their one
// wire encoding and the one transport that carries them: OPMX1, a
// multiplexed framed connection (frame.go, mux.go) whose payloads are the
// hand-written, versioned binary encoding of codec.go — no reflection, no
// per-connection stream state, every payload self-contained. In-process
// deployments skip the wire and pass the same message values directly.
//
// The message boundary mirrors Figure 6 of the paper:
//
//	client      → obfuscator : ClientRequest  ⟨u, (s,t), fS, fT⟩   (secure channel)
//	obfuscator  → server     : ServerQuery    Q(S, T)
//	server      → obfuscator : ServerReply    candidate result paths
//	obfuscator  → client     : ClientReply    P(s, t)
//
// On top of the per-query exchange, a BatchQuery carries a whole batch of
// obfuscated queries in one round trip — answered as a stream of BatchItems
// the dialling side reassembles into a BatchReply — so a networked obfuscator
// can hand the server's batch engine an entire obfuscation plan (all Q(S, T)
// of one batching window) and amortise both framing and evaluation.
package protocol

import (
	"math"

	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// MessageType tags a message payload on the wire (the first byte of its
// header, see codec.go).
type MessageType uint8

// Message type constants. The values are wire format; append, never renumber.
const (
	TypeClientRequest MessageType = iota + 1
	TypeClientReply
	TypeServerQuery
	TypeServerReply
	TypeError
	TypeBatchQuery
	TypeBatchItem
	TypeWeightUpdate
	TypeWeightUpdateAck
	TypeHello
)

// ClientRequest is the client-to-obfuscator request over the secure channel.
type ClientRequest struct {
	RequestID uint64
	User      string
	Source    roadnet.NodeID
	Dest      roadnet.NodeID
	FS        int
	FT        int
}

// ClientReply is the obfuscator-to-client answer: the requested path.
type ClientReply struct {
	RequestID uint64
	Found     bool
	Path      []roadnet.NodeID
	Cost      float64
	// Error carries a human-readable failure description when Found is
	// false because of an error (as opposed to an unreachable destination).
	Error string
}

// ServerQuery is one obfuscated path query Q(S, T) sent to the server. It
// deliberately carries no user identifiers: the server must not learn who is
// asking, only the anonymised endpoint sets.
type ServerQuery struct {
	QueryID uint64
	Sources []roadnet.NodeID
	Dests   []roadnet.NodeID
	// DistanceOnly asks for the |S|×|T| cost table without materialised node
	// sequences — the degraded answer an overloaded server sheds to (the
	// many-to-many engine computes it without unpacking a single path). The
	// multiplexed transport sets it on admission-control shedding; replies
	// to such queries carry Degraded.
	DistanceOnly bool
	// Topology is the roadnet.Graph.TopologyChecksum of the map the asker
	// reads the reply against, 0 for none. A query that names a map is
	// answered with every path edge as an out-arc ordinal on that map (see
	// ServerReply.Map), and refused with ErrTopologyMismatch by a server
	// holding another; a query that names none is answered with node ids.
	// Weight updates leave a map's topology checksum unchanged, so ordinal
	// k of node u names the same arc on both sides at every generation.
	Topology uint64
}

// CandidatePath is one (s, t, path) triple of a ServerReply. In a reply's
// Paths, Nodes sub-slices a node arena the whole reply shares (the server
// unpacks into one, the full decode decodes into one): treat it as
// read-only. A cell read with ServerReply.ReadCells or Cell owns its Nodes
// instead, which is how a path is taken out of a reply to outlive it.
type CandidatePath struct {
	Source roadnet.NodeID
	Dest   roadnet.NodeID
	Nodes  []roadnet.NodeID
	Cost   float64
	Found  bool
}

// ServerReply returns every candidate result path of one obfuscated query.
// The table comes in one of two forms: decoded, in Paths, or still in the
// wire form it arrived in, in Held. Read its cells with Cell, which serves
// either (or ReadCells, for several in one pass).
type ServerReply struct {
	QueryID uint64
	// Paths is the |S|×|T| candidate table, source-major: cell (i, j) of
	// Q(S, T) is Paths[i*|T|+j]. The wire encoding relies on that shape.
	// It is nil when Held holds the table.
	Paths []CandidatePath
	// Held, when it holds a reply, is the table in its wire form, and the
	// header fields below are its header's: the fleet router relays the
	// shard's bytes as they arrived, and the obfuscator reads only its
	// members' cells out of them. AppendMessage writes the held bytes;
	// decoding never sets it.
	Held HeldReply
	// Map, when set, is the road map the reply's paths walk, and the encoder
	// writes each path edge as its ordinal among the out-arcs of the node it
	// leaves, in the map's CSR order: a reader resolves the ordinals on a map
	// of the same TopologyChecksum. A server sets it when the query names
	// its map (ServerQuery.Topology); the full decode of such a reply sets it
	// to the map it decoded against. Nil means node-id paths.
	Map *roadnet.Graph
	// SettledNodes and PageFaults let experiments observe the server-side
	// cost without another channel; a production server would omit them.
	// No serving tier fills PageFaults: only the paged evaluator of
	// internal/experiments, which simulates the paper's disk-resident
	// server in process, counts the faults of each query it answers.
	SettledNodes int
	PageFaults   int64
	// Generation and ContentSum identify the metric this reply was computed
	// under: the data generation and the weight-content checksum of the graph
	// snapshot served (ContentSum 0 = unknown). Generation numbers are
	// per-server and not comparable across shards; ContentSum is
	// content-derived and is.
	Generation uint64
	ContentSum uint64
	// Degraded marks a distance-only reply: admission control shed the query
	// to the many-to-many distance table and no node sequences were
	// materialised (every CandidatePath has nil Nodes).
	Degraded bool
}

// HeldReply is a ServerReply held in its wire form: the header fields and
// the table's shape are decoded, the candidate table stays the encoded bytes
// it arrived as. A fleet router forwards shard replies this way — it reads
// the header to count degraded replies, and writes the body back out
// unchanged — so the |S|·|T| paths are encoded once, by the shard. The
// obfuscator holds them too: it validates the whole body and materialises
// only the cells its members ask for (ServerReply.ReadCells on Reply's
// result). Read one with ReadHeldReply (or MuxClient.DoHeld and
// DoBatchHeld), decode it whole with Decode; AppendMessage writes it as the
// ServerReply payload it was read from.
//
// The held body aliases the payload it was read from, which must therefore
// not be reused while the HeldReply is live; ReadFrame returns a fresh
// payload for every frame. The zero HeldReply holds nothing and does not
// encode.
type HeldReply struct {
	QueryID      uint64
	Degraded     bool
	SettledNodes int
	PageFaults   int64
	Generation   uint64
	ContentSum   uint64

	// nS and nT are the table's shape, |S| and |T|; body is the reply's
	// whole encoded body, QueryID first, nil when nothing is held. Whether
	// its paths are node ids or out-arc ordinals, and on which map, is the
	// body's own business: its cell reader checks the map it is given.
	nS, nT int
	body   []byte
}

// BatchQuery carries several obfuscated path queries to the server in one
// message, to be evaluated concurrently by the server's batch engine. Like
// ServerQuery it carries no user identifiers.
type BatchQuery struct {
	BatchID uint64
	Queries []ServerQuery
}

// BatchReply answers a BatchQuery: one reply per query, in query order.
// Queries that failed individually have their error message in Errors at the
// same index (empty string = success) rather than failing the whole batch. It
// has no wire form: it travels as one BatchItem per query and is what DoBatch
// reassembles them into.
type BatchReply struct {
	BatchID uint64
	Replies []ServerReply
	Errors  []string
}

// BatchItem is one query's result of a streaming batch reply: the
// multiplexed transport sends one BatchItem frame per query as it completes
// instead of buffering the whole BatchReply. Index is the query's position in
// the originating BatchQuery; Error carries the per-query failure ("" =
// success), mirroring BatchReply.Errors. A relay emits a Reply that holds
// the shard's reply (ServerReply.Held), which is sent as the bytes it
// arrived as.
type BatchItem struct {
	BatchID uint64
	Index   int
	Reply   ServerReply
	Error   string
}

// WeightUpdate carries live arc weight changes to a server (or to the fleet
// router, which broadcasts them to every shard and replays the cumulative
// state to shards that reconnect). The changes flow into
// Server.UpdateWeights: snapshot swap, cache invalidation, background
// overlay re-customization.
type WeightUpdate struct {
	UpdateID uint64
	Changes  []roadnet.ArcWeightChange
}

// WeightUpdateAck acknowledges a WeightUpdate once the server has published
// it, with the published data generation and weight-content checksum — what
// the fleet router uses to observe shards converging on one metric.
type WeightUpdateAck struct {
	UpdateID   uint64
	Generation uint64
	ContentSum uint64
}

// ErrorReply reports a failure processing a query or request.
type ErrorReply struct {
	RefID   uint64
	Message string
}

// Path returns the cell's route as a search.Path sharing its Nodes: empty
// when the destination is unreachable.
func (c CandidatePath) Path() search.Path {
	if !c.Found {
		return search.Path{}
	}
	return search.Path{Nodes: c.Nodes, Cost: c.Cost}
}

// CandidatesOf lays the evaluated table t out as a reply's candidate table:
// cell c of t becomes Paths[c], with no path copied — each found cell's Nodes
// is t's window of the shared arena, or nil when distanceOnly.
func CandidatesOf(t *search.Table, distanceOnly bool) []CandidatePath {
	nT := len(t.Dests)
	paths := make([]CandidatePath, len(t.Dist))
	for c := range paths {
		cand := &paths[c]
		cand.Source, cand.Dest = t.Sources[c/nT], t.Dests[c%nT]
		if d := t.Dist[c]; !math.IsInf(d, 1) {
			cand.Found, cand.Cost = true, d
			if !distanceOnly {
				cand.Nodes = t.Path(c)
			}
		}
	}
	return paths
}
