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
}

// CandidatePath is one (s, t, path) triple of a ServerReply. Nodes usually
// sub-slices a node arena the whole reply shares (the server unpacks into
// one, the codec decodes into one): treat it as read-only, and copy it
// (PathFromCandidate) before retaining it past the reply.
type CandidatePath struct {
	Source roadnet.NodeID
	Dest   roadnet.NodeID
	Nodes  []roadnet.NodeID
	Cost   float64
	Found  bool
}

// ServerReply returns every candidate result path of one obfuscated query.
type ServerReply struct {
	QueryID uint64
	// Paths is the |S|×|T| candidate table, source-major: cell (i, j) of
	// Q(S, T) is Paths[i*|T|+j]. The wire encoding relies on that shape.
	Paths []CandidatePath
	// SettledNodes and PageFaults let experiments observe the server-side
	// cost without another channel; a production server would omit them.
	// PageFaults is exact under sequential evaluation and an upper bound
	// when the query overlapped others in a batch (the buffer pool's fault
	// counter is shared across in-flight queries).
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

// HeldReply is a ServerReply held in its wire form: the header fields a
// relay acts on are decoded, the candidate table stays the encoded bytes it
// arrived as. A fleet router forwards shard replies this way — it reads the
// header to count degraded replies, and writes the body back out unchanged, so the |S|·|T|
// paths are encoded once, by the shard, and decoded once, by the
// obfuscator. Read one with ReadHeldReply (or MuxClient.DoHeld and
// DoBatchHeld), decode it with Decode; AppendMessage writes it as the
// ServerReply payload it was read from.
//
// The held body aliases the payload it was read from, which must therefore
// not be reused while the HeldReply is live; ReadFrame returns a fresh
// payload for every frame. The zero HeldReply holds nothing and does not
// encode.
type HeldReply struct {
	QueryID    uint64
	Degraded   bool
	Generation uint64
	ContentSum uint64

	// body is the reply's whole encoded body, QueryID first; nil when
	// nothing is held.
	body []byte
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
// success), mirroring BatchReply.Errors.
//
// Held, when it holds a reply, is sent in place of Reply: a relay emits the
// reply in the wire form it arrived in. Decoding never sets it.
type BatchItem struct {
	BatchID uint64
	Index   int
	Reply   ServerReply
	Held    HeldReply
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

// PathFromCandidate converts a wire CandidatePath back to a search.Path. The
// node sequence is copied into an exactly-sized slice of its own: a decoded
// reply's candidates all sub-slice one node arena, and a path that outlives
// the reply must neither keep that arena alive nor alias it.
func PathFromCandidate(c CandidatePath) search.Path {
	if !c.Found {
		return search.Path{}
	}
	nodes := make([]roadnet.NodeID, len(c.Nodes))
	copy(nodes, c.Nodes)
	return search.Path{Nodes: nodes, Cost: c.Cost}
}
