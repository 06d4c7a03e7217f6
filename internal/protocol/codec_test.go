package protocol

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// roundTrip encodes msg, decodes the payload and returns the decoded value.
func roundTrip(t testing.TB, msg any, deadline int64) any {
	t.Helper()
	payload, err := AppendMessage(nil, msg, deadline)
	if err != nil {
		t.Fatalf("AppendMessage(%T): %v", msg, err)
	}
	got, dl, err := DecodeMessage(payload)
	if err != nil {
		t.Fatalf("DecodeMessage(%T): %v", msg, err)
	}
	if dl != deadline {
		t.Fatalf("%T: deadline %d came back as %d", msg, deadline, dl)
	}
	return got
}

func TestMessageRoundTrip(t *testing.T) {
	messages := []any{
		ClientRequest{RequestID: 1, User: "alice", Source: 2, Dest: 3, FS: 4, FT: 5},
		ClientReply{RequestID: 1, Found: true, Path: []roadnet.NodeID{1, 2, 3}, Cost: 7},
		ClientReply{RequestID: 2, Error: "no route"},
		ServerQuery{QueryID: 9, Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}, DistanceOnly: true},
		ServerReply{QueryID: 9, SettledNodes: 10, PageFaults: 3, Generation: 4, ContentSum: 0xfeedface,
			Paths: []CandidatePath{{Source: 1, Dest: 3, Found: true, Nodes: []roadnet.NodeID{1, 3}, Cost: 2}}},
		ServerReply{},
		BatchQuery{BatchID: 5, Queries: []ServerQuery{{QueryID: 1, Sources: []roadnet.NodeID{7}, Dests: []roadnet.NodeID{8, 9}}, {QueryID: 2}}},
		BatchItem{BatchID: 5, Index: 3, Error: "poisoned"},
		WeightUpdate{UpdateID: 11, Changes: []roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 3.5}}},
		WeightUpdateAck{UpdateID: 11, Generation: 2, ContentSum: 0xbeef},
		ErrorReply{RefID: 4, Message: "boom"},
		Hello{Node: "shard-0", Role: "server", Generation: 3, ContentSum: 0xfeed, MaxInFlight: 64},
	}
	for _, msg := range messages {
		if got := roundTrip(t, msg, 12345); !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip of %T:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
	// Pointers encode like values; unsupported types are refused.
	if got := roundTrip(t, &ClientRequest{RequestID: 2}, 0); got.(ClientRequest).RequestID != 2 {
		t.Error("pointer message lost data")
	}
	if _, err := AppendMessage(nil, 42, 0); err == nil {
		t.Error("unsupported type accepted")
	}
}

// randomReply draws an |S|×|T| reply whose paths out of one source share
// prefixes the way shortest-path trees do, with everything the encoding must
// survive mixed in: unreachable cells, empty paths, duplicate endpoints and
// tie-diverging routes (two paths of one source reaching the same node over
// different prefixes).
func randomReply(rng *rand.Rand, nS, nT int, degraded bool) ServerReply {
	rep := ServerReply{
		QueryID:      rng.Uint64(),
		SettledNodes: rng.Intn(1 << 20),
		PageFaults:   rng.Int63n(1 << 30),
		Generation:   uint64(rng.Intn(100)),
		ContentSum:   rng.Uint64(),
		Degraded:     degraded,
	}
	srcs := make([]roadnet.NodeID, nS)
	dsts := make([]roadnet.NodeID, nT)
	for i := range srcs {
		srcs[i] = roadnet.NodeID(rng.Intn(50000))
		if i > 0 && rng.Intn(5) == 0 {
			srcs[i] = srcs[rng.Intn(i)] // duplicate source, adjacent or not
		}
	}
	for j := range dsts {
		dsts[j] = roadnet.NodeID(rng.Intn(50000))
		if j > 0 && rng.Intn(5) == 0 {
			dsts[j] = dsts[rng.Intn(j)]
		}
	}
	for i := 0; i < nS; i++ {
		var row [][]roadnet.NodeID
		for j := 0; j < nT; j++ {
			c := CandidatePath{Source: srcs[i], Dest: dsts[j]}
			switch rng.Intn(8) {
			case 0: // unreachable
			case 1: // found, but no nodes (what a degraded cell looks like)
				c.Found, c.Cost = true, rng.Float64()*1e4
			default:
				c.Found, c.Cost = true, rng.Float64()*1e4
				if degraded {
					break
				}
				var nodes []roadnet.NodeID
				if len(row) > 0 && rng.Intn(4) > 0 {
					prev := row[rng.Intn(len(row))]
					nodes = append(nodes, prev[:rng.Intn(len(prev)+1)]...)
				}
				if len(nodes) == 0 {
					nodes = append(nodes, srcs[i])
				}
				for k := rng.Intn(30); k > 0; k-- {
					next := nodes[len(nodes)-1] + roadnet.NodeID(rng.Intn(400)-200)
					if rng.Intn(20) == 0 {
						next = roadnet.NodeID(rng.Int31()) - math.MaxInt32/2 // a far jump, possibly negative
					}
					nodes = append(nodes, next)
				}
				c.Nodes = nodes
				row = append(row, nodes)
			}
			rep.Paths = append(rep.Paths, c)
		}
	}
	return rep
}

// TestCodecRoundTripProperty is the codec's property test: for random
// messages of every type, decode(encode(m)) == m.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ids := func(n int) []roadnet.NodeID {
		if n == 0 {
			return nil
		}
		out := make([]roadnet.NodeID, n)
		for i := range out {
			out[i] = roadnet.NodeID(rng.Int31n(1 << 20))
		}
		return out
	}
	query := func() ServerQuery {
		return ServerQuery{QueryID: rng.Uint64(), Sources: ids(rng.Intn(20)), Dests: ids(rng.Intn(20)), DistanceOnly: rng.Intn(2) == 0}
	}
	for iter := 0; iter < 300; iter++ {
		var msg any
		switch iter % 8 {
		case 0:
			msg = randomReply(rng, 1+rng.Intn(17), 1+rng.Intn(17), iter%16 == 0)
		case 1:
			item := BatchItem{BatchID: rng.Uint64(), Index: rng.Intn(64), Reply: randomReply(rng, 1+rng.Intn(4), 1+rng.Intn(4), false)}
			if rng.Intn(4) == 0 {
				item = BatchItem{BatchID: 1, Index: 2, Error: "query refused"}
			}
			msg = item
		case 2:
			msg = Hello{Node: "n", Role: "server", Generation: rng.Uint64(), ContentSum: rng.Uint64(), MaxInFlight: rng.Intn(128)}
		case 3:
			b := BatchQuery{BatchID: rng.Uint64()}
			for k := rng.Intn(6); k > 0; k-- {
				b.Queries = append(b.Queries, query())
			}
			msg = b
		case 4:
			msg = query()
		case 5:
			wu := WeightUpdate{UpdateID: rng.Uint64()}
			for k := rng.Intn(30); k > 0; k-- {
				wu.Changes = append(wu.Changes, roadnet.ArcWeightChange{From: roadnet.NodeID(rng.Int31()), To: roadnet.NodeID(rng.Int31()), NewCost: rng.ExpFloat64()})
			}
			msg = wu
		case 6:
			msg = ClientReply{RequestID: rng.Uint64(), Found: true, Path: ids(rng.Intn(200)), Cost: rng.Float64()}
		case 7:
			msg = ClientRequest{RequestID: rng.Uint64(), User: "u", Source: roadnet.NodeID(rng.Int31()), Dest: roadnet.NodeID(rng.Int31()), FS: rng.Intn(64), FT: rng.Intn(64)}
		}
		if got := roundTrip(t, msg, rng.Int63()); !reflect.DeepEqual(got, msg) {
			t.Fatalf("iteration %d: round trip of %T differs:\n got %+v\nwant %+v", iter, msg, got, msg)
		}
	}
}

// TestDecodedReplyIsTwoAllocations pins the decode shape: one candidate slab
// and one node arena, every Nodes a capacity-clipped window of the arena.
func TestDecodedReplyIsTwoAllocations(t *testing.T) {
	rep := randomReply(rand.New(rand.NewSource(3)), 16, 16, false)
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodeMessage(payload); err != nil {
			t.Fatal(err)
		}
	})
	// Slab, arena, and the boxing of the ServerReply into the returned any.
	if allocs > 3 {
		t.Errorf("decoding a 16×16 reply took %v allocations, want at most 3", allocs)
	}
	got, _, _ := DecodeMessage(payload)
	for _, c := range got.(ServerReply).Paths {
		if cap(c.Nodes) != len(c.Nodes) {
			t.Fatalf("candidate (%d,%d): cap %d != len %d, an append would scribble over its neighbour", c.Source, c.Dest, cap(c.Nodes), len(c.Nodes))
		}
	}
}

// TestReplyShapeRefused: a reply that is not a source-major table cannot be
// encoded, and says so with a typed error.
func TestReplyShapeRefused(t *testing.T) {
	bad := ServerReply{Paths: []CandidatePath{{Source: 1, Dest: 2}, {Source: 3, Dest: 4}}}
	if _, err := AppendMessage(nil, bad, 0); !errors.Is(err, ErrReplyShape) {
		t.Errorf("diagonal reply: err = %v, want ErrReplyShape", err)
	}
}

// TestReplyExpansionBound covers both ends of the prefix-sharing bound: an
// honest encoder whose sharing would exceed it falls back to unshared paths
// (and still round-trips), and a hostile payload declaring more path nodes
// than the bound allows is refused before the arena is allocated.
func TestReplyExpansionBound(t *testing.T) {
	long := make([]roadnet.NodeID, 4000)
	for i := range long {
		long[i] = roadnet.NodeID(i)
	}
	rep := ServerReply{QueryID: 1}
	for j := 0; j < 300; j++ { // 300 destinations down one corridor
		rep.Paths = append(rep.Paths, CandidatePath{Source: 0, Dest: 3999, Found: true, Cost: 1, Nodes: long})
	}
	if got := roundTrip(t, rep, 0); !reflect.DeepEqual(got, rep) {
		t.Error("reply past the sharing bound did not round-trip")
	}

	small := ServerReply{QueryID: 1, Paths: []CandidatePath{{Source: 5, Dest: 6, Found: true, Cost: 1, Nodes: []roadnet.NodeID{5, 6}}}}
	payload, err := AppendMessage(nil, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The node total is the uvarint just before the 3-byte path (count 2,
	// deltas 0 and +1); swap it for 2^40.
	tail := payload[len(payload)-4:]
	if tail[0] != 2 {
		t.Fatalf("unexpected layout: %x", payload)
	}
	hostile := append(append([]byte{}, payload[:len(payload)-4]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
	hostile = append(hostile, tail[1:]...)
	if _, _, err := DecodeMessage(hostile); !errors.Is(err, ErrPayloadMalformed) {
		t.Errorf("2^40 declared nodes: err = %v, want ErrPayloadMalformed", err)
	}

	// The bound is taken against the bytes of the paths themselves, as the
	// encoder takes it, not against the payload around them: the corridor
	// reply, shared, behind a megabyte of error string is still refused. Built
	// from the distance-only encoding (which ends after the cost table) by
	// clearing its Degraded flag and appending the shared trees.
	item := BatchItem{Error: strings.Repeat("x", 1<<20), Reply: rep}
	item.Reply.Degraded = true
	padded, err := AppendMessage(nil, item, 0)
	if err != nil {
		t.Fatal(err)
	}
	flag := payloadHeaderLen + 2 + len(binary.AppendUvarint(nil, 1<<20)) + 1<<20 + 1
	if padded[flag] != 1 {
		t.Fatalf("unexpected layout: Degraded flag not at %d", flag)
	}
	padded[flag] = 0
	padded = binary.AppendUvarint(padded, uint64(300*len(long)))
	padded = appendPathTrees(padded, rep.Paths, 300, true)
	if _, _, err := DecodeMessage(padded); !errors.Is(err, ErrPayloadMalformed) {
		t.Errorf("over-shared paths behind padding: err = %v, want ErrPayloadMalformed", err)
	}
}

// TestDecodeRejectsDamage: every truncation of a valid payload, and every
// version but ours, is a typed error.
func TestDecodeRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, msg := range []any{
		randomReply(rng, 4, 5, false),
		BatchQuery{BatchID: 1, Queries: []ServerQuery{{QueryID: 1, Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}}}},
		WeightUpdate{UpdateID: 1, Changes: []roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 3}}},
	} {
		payload, err := AppendMessage(nil, msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n++ {
			_, _, err := DecodeMessage(payload[:n])
			if !errors.Is(err, ErrPayloadTruncated) && !errors.Is(err, ErrPayloadMalformed) {
				t.Fatalf("%T cut to %d of %d bytes: err = %v, want a typed payload error", msg, n, len(payload), err)
			}
		}
		// The previous version and a future one are both foreign.
		for _, v := range []byte{CodecVersion - 1, CodecVersion + 1} {
			payload[1] = v
			if _, _, err := DecodeMessage(payload); !errors.Is(err, ErrCodecVersion) {
				t.Errorf("%T with version %d: err = %v, want ErrCodecVersion", msg, v, err)
			}
		}
	}
}

// TestCellOwnsItsMemory: a cell read out of a reply, in either form, is an
// exactly-sized copy — scribbling over the reply's arena or its held bytes
// does not reach it — and an unreachable cell converts to an empty path.
func TestCellOwnsItsMemory(t *testing.T) {
	arena := []roadnet.NodeID{1, 2, 3, 9, 9}
	rep := ServerReply{Paths: []CandidatePath{
		{Source: 1, Dest: 3, Found: true, Cost: 2, Nodes: arena[:3:3]},
		{Source: 1, Dest: 4},
	}}
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	held, _, err := ReadHeldReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []ServerReply{rep, held.Reply()} {
		c, err := form.Cell(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Path()
		for i := range arena {
			arena[i] = -7
		}
		clear(payload)
		if !reflect.DeepEqual(p, search.Path{Nodes: []roadnet.NodeID{1, 2, 3}, Cost: 2}) || cap(p.Nodes) != len(p.Nodes) {
			t.Errorf("held %v: extracted path %+v (cap %d) shares memory with the reply", form.Held.body != nil, p, cap(p.Nodes))
		}
		copy(arena, []roadnet.NodeID{1, 2, 3, 9, 9})
		payload, _ = AppendMessage(payload[:0], rep, 0)
	}
	if c, err := rep.Cell(0, 1); err != nil || !c.Path().Empty() || c.Nodes != nil {
		t.Errorf("unreachable cell: %+v (err %v), want an empty path", c, err)
	}
	if _, err := rep.Cell(1, 0); !errors.Is(err, ErrNoCell) {
		t.Errorf("cell outside the table: err = %v, want ErrNoCell", err)
	}
}

// TestWorkedExampleMatchesDocs keeps docs/FORMATS.md honest: the hex listing
// under "Worked example: a 2×2 reply" must be, byte for byte, what the encoder
// writes for the reply the section describes.
func TestWorkedExampleMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/FORMATS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### Worked example: a 2×2 reply")
	if !ok {
		t.Fatal("docs/FORMATS.md lost its 2×2 reply example")
	}
	_, listing, _ := strings.Cut(section, "```\n")
	listing, _, _ = strings.Cut(listing, "```")
	var want strings.Builder
	for _, line := range strings.Split(listing, "\n") {
		// Hex bytes, then at least two spaces, then the annotation.
		bytesPart, _, _ := strings.Cut(line, "  ")
		want.WriteString(strings.ReplaceAll(bytesPart, " ", ""))
	}

	rep := ServerReply{QueryID: 7, SettledNodes: 42, Generation: 3, ContentSum: 0xdeadbeef, Paths: []CandidatePath{
		{Source: 10, Dest: 20, Found: true, Cost: 5, Nodes: []roadnet.NodeID{10, 11, 20}},
		{Source: 10, Dest: 25, Found: true, Cost: 7, Nodes: []roadnet.NodeID{10, 11, 12, 25}},
		{Source: 12, Dest: 20, Found: true, Cost: 4, Nodes: []roadnet.NodeID{12, 20}},
		{Source: 12, Dest: 25, Found: true, Cost: 6, Nodes: []roadnet.NodeID{12, 25}},
	}}
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(payload); got != want.String() {
		t.Errorf("worked example drifted from the encoder (%d bytes):\n got %s\nwant %s", len(payload), got, want.String())
	}
}

// recordedReply evaluates one side×side query on the benchmark's kind of map
// (10k-node TigerLike) and returns it as the reply a server would send.
func recordedReply(tb testing.TB, side int) ServerReply {
	tb.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 10000
	g, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(side)))
	srcs := make([]roadnet.NodeID, side)
	dsts := make([]roadnet.NodeID, side)
	for i := range srcs {
		srcs[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
		dsts[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
	}
	res, err := search.NewProcessor(storage.NewMemoryGraph(g)).Evaluate(srcs, dsts)
	if err != nil {
		tb.Fatal(err)
	}
	rep := ServerReply{QueryID: 1, SettledNodes: res.Stats.SettledNodes, Generation: 1, ContentSum: 0x1234567890abcdef}
	for c := range res.Dist {
		cand := CandidatePath{Source: srcs[c/side], Dest: dsts[c%side], Nodes: res.Path(c)}
		if cand.Nodes != nil {
			cand.Found, cand.Cost = true, res.Dist[c]
		}
		rep.Paths = append(rep.Paths, cand)
	}
	return rep
}

// TestRecordedReplyRoundTrip: real shortest-path tables survive the codec —
// decoded whole and read cell by cell out of the held form — and the prefix
// tree earns its keep on them.
func TestRecordedReplyRoundTrip(t *testing.T) {
	for _, side := range []int{3, 16} {
		rep := recordedReply(t, side)
		payload, err := AppendMessage(nil, rep, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeMessage(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("recorded %d×%d reply did not round-trip", side, side)
		}
		held, _, err := ReadHeldReply(payload)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range rep.Paths {
			cell, err := held.Reply().Cell(c/side, c%side)
			if len(want.Nodes) == 0 {
				want.Nodes = nil
			}
			if err != nil || !reflect.DeepEqual(cell, want) {
				t.Fatalf("recorded %d×%d reply: cell %d read as %+v (err %v), want %+v", side, side, c, cell, err, want)
			}
		}
	}
	rep := recordedReply(t, 16)
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, c := range rep.Paths {
		nodes += len(c.Nodes)
	}
	// Four bytes per node id is what the in-memory form costs; the wire form
	// must beat one byte per node for sharing to be worth its complexity.
	if len(payload) > nodes {
		t.Errorf("16×16 reply: %d bytes for %d path nodes", len(payload), nodes)
	}
	t.Logf("16×16 reply: %d path nodes in %d bytes", nodes, len(payload))
}

var (
	benchSink any
	benchLen  int
)

// BenchmarkReplyCodec measures the codec on recorded replies: encoding into a
// reused buffer (0 allocs/op), decoding (the candidate slab, the node arena
// and the boxing into any), reading one cell out of the held reply — what
// the obfuscator does for each member: validate the whole body, materialise
// one path — and relaying — what a fleet router does with a shard's reply:
// read its header and write the held bytes back out into a reused buffer.
func BenchmarkReplyCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		side int
	}{{"3x3", 3}, {"16x16", 16}} {
		rep := recordedReply(b, shape.side)
		payload, err := AppendMessage(nil, rep, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, 2*len(payload))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := AppendMessage(buf[:0], &rep, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchLen = len(out)
			}
			b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg, _, err := DecodeMessage(payload)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = msg
			}
			b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		})
		b.Run("cell/"+shape.name, func(b *testing.B) {
			held, _, err := ReadHeldReply(payload)
			if err != nil {
				b.Fatal(err)
			}
			reply := held.Reply()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := reply.Cell(shape.side/2, shape.side/2)
				if err != nil {
					b.Fatal(err)
				}
				benchLen = len(c.Nodes)
			}
			b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		})
		b.Run("relay/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, 2*len(payload))
			var held HeldReply
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				held, _, err = ReadHeldReply(payload)
				if err != nil {
					b.Fatal(err)
				}
				out, err := AppendMessage(buf[:0], &held, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchLen = len(out)
			}
			b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		})
	}
}
