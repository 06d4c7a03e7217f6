package protocol

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
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
		ServerQuery{QueryID: 10, Sources: []roadnet.NodeID{4}, Dests: []roadnet.NodeID{5}, Topology: 0xfedcba9876543210},
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
		q := ServerQuery{QueryID: rng.Uint64(), Sources: ids(rng.Intn(20)), Dests: ids(rng.Intn(20)), DistanceOnly: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			q.Topology = rng.Uint64()
		}
		return q
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
	padded = appendPathTrees(padded, rep.Paths, 300, true, true)
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

// gridMap returns the w×h grid of two-way unit-cost roads, node y·w+x at
// (x, y): every out-degree is 2, 3 or 4.
func gridMap(w, h int) *roadnet.Graph {
	g := roadnet.NewGraph(w*h, 4*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(float64(x), float64(y))
		}
	}
	for v := 0; v < w*h; v++ {
		if v%w+1 < w {
			g.MustAddBidirectionalEdge(roadnet.NodeID(v), roadnet.NodeID(v+1), 1)
		}
		if v+w < w*h {
			g.MustAddBidirectionalEdge(roadnet.NodeID(v), roadnet.NodeID(v+w), 1)
		}
	}
	g.Freeze()
	return g
}

// TestWorkedExampleMatchesDocs keeps docs/FORMATS.md honest: the hex listing
// under each "Worked example" reply heading must be, byte for byte, what the
// encoder writes for the reply the section describes.
func TestWorkedExampleMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/FORMATS.md")
	if err != nil {
		t.Fatal(err)
	}
	listing := func(heading string) string {
		_, section, ok := strings.Cut(string(doc), heading+"\n")
		if !ok {
			t.Fatalf("docs/FORMATS.md lost its section %q", heading)
		}
		_, listing, _ := strings.Cut(section, "```\n")
		listing, _, _ = strings.Cut(listing, "```")
		var want strings.Builder
		for _, line := range strings.Split(listing, "\n") {
			// Hex bytes, then at least two spaces, then the annotation.
			bytesPart, _, _ := strings.Cut(line, "  ")
			want.WriteString(strings.ReplaceAll(bytesPart, " ", ""))
		}
		return want.String()
	}

	ids := ServerReply{QueryID: 7, SettledNodes: 42, Generation: 3, ContentSum: 0xdeadbeef, Paths: []CandidatePath{
		{Source: 10, Dest: 20, Found: true, Cost: 5, Nodes: []roadnet.NodeID{10, 11, 20}},
		{Source: 10, Dest: 25, Found: true, Cost: 7, Nodes: []roadnet.NodeID{10, 11, 12, 25}},
		{Source: 12, Dest: 20, Found: true, Cost: 4, Nodes: []roadnet.NodeID{12, 20}},
		{Source: 12, Dest: 25, Found: true, Cost: 6, Nodes: []roadnet.NodeID{12, 25}},
	}}
	// The 3×2 grid: 0 1 2 over 3 4 5.
	arcs := ServerReply{QueryID: 8, SettledNodes: 6, Generation: 1, ContentSum: 0xc0ffee, Map: gridMap(3, 2), Paths: []CandidatePath{
		{Source: 0, Dest: 4, Found: true, Cost: 2, Nodes: []roadnet.NodeID{0, 1, 4}},
		{Source: 0, Dest: 5, Found: true, Cost: 3, Nodes: []roadnet.NodeID{0, 1, 4, 5}},
		{Source: 2, Dest: 4, Found: true, Cost: 2, Nodes: []roadnet.NodeID{2, 1, 4}},
		{Source: 2, Dest: 5, Found: true, Cost: 1, Nodes: []roadnet.NodeID{2, 5}},
	}}
	for heading, rep := range map[string]ServerReply{
		"### Worked example: a 2×2 reply":                ids,
		"### Worked example: a 2×2 topology-bound reply": arcs,
	} {
		payload, err := AppendMessage(nil, rep, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hex.EncodeToString(payload), listing(heading); got != want {
			t.Errorf("%s: the listing drifted from the encoder (%d bytes):\n got %s\nwant %s", heading, len(payload), got, want)
		}
	}
}

// evaluatedReply evaluates one side×side query on g, its endpoints drawn
// with seed, and returns it as the reply a server would send to a query that
// names no map.
func evaluatedReply(tb testing.TB, g *roadnet.Graph, side int, seed int64) ServerReply {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
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

// recordedReply evaluates one side×side query on the benchmark's kind of map
// (10k-node TigerLike) and returns it as the reply a server would send to a
// query that names no map, and the map: set the reply's Map to it for the
// reply to a query that names it.
func recordedReply(tb testing.TB, side int) (ServerReply, *roadnet.Graph) {
	tb.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 10000
	g, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return evaluatedReply(tb, g, side, int64(side)), g
}

// decodeOn decodes a reply payload as its reader would: a form 0 reply
// through DecodeMessage, a form 2 one held and decoded on g.
func decodeOn(tb testing.TB, payload []byte, g *roadnet.Graph) ServerReply {
	tb.Helper()
	if g == nil {
		msg, _, err := DecodeMessage(payload)
		if err != nil {
			tb.Fatal(err)
		}
		return msg.(ServerReply)
	}
	held, _, err := ReadHeldReply(payload)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := held.Decode(g)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// TestRecordedReplyRoundTrip: real shortest-path tables survive the codec in
// both path forms — decoded whole and read cell by cell out of the held
// form — the prefix tree earns its keep on them, and out-arc ordinals cut
// the node-id form's bytes.
func TestRecordedReplyRoundTrip(t *testing.T) {
	size := map[int]map[bool]int{}
	for _, side := range []int{3, 16} {
		size[side] = map[bool]int{}
		rep, g := recordedReply(t, side)
		for _, bound := range []bool{false, true} {
			rep.Map = nil
			if bound {
				rep.Map = g
			}
			payload, err := AppendMessage(nil, rep, 0)
			if err != nil {
				t.Fatal(err)
			}
			size[side][bound] = len(payload)
			if got := decodeOn(t, payload, rep.Map); !reflect.DeepEqual(got, rep) {
				t.Fatalf("recorded %d×%d reply (bound %v) did not round-trip", side, side, bound)
			}
			held, _, err := ReadHeldReply(payload)
			if err != nil {
				t.Fatal(err)
			}
			at := make([][2]int, len(rep.Paths))
			for c := range at {
				at[c] = [2]int{c / side, c % side}
			}
			cells := make([]CandidatePath, len(at))
			if err := held.Reply().ReadCells(rep.Map, cells, at); err != nil {
				t.Fatalf("recorded %d×%d reply (bound %v): reading every cell: %v", side, side, bound, err)
			}
			for c, want := range rep.Paths {
				cell, err := held.Reply().Cell(c/side, c%side)
				if bound {
					if !errors.Is(err, ErrTopologyMismatch) {
						t.Fatalf("bound %d×%d reply: a cell read without a map: err = %v, want ErrTopologyMismatch", side, side, err)
					}
					cell, err = cells[c], nil
				}
				if len(want.Nodes) == 0 {
					want.Nodes = nil
				}
				if err != nil || !reflect.DeepEqual(cell, want) {
					t.Fatalf("recorded %d×%d reply (bound %v): cell %d read as %+v (err %v), want %+v", side, side, bound, c, cell, err, want)
				}
			}
		}
	}
	rep, _ := recordedReply(t, 16)
	nodes := 0
	for _, c := range rep.Paths {
		nodes += len(c.Nodes)
	}
	// Four bytes per node id is what the in-memory form costs; the wire form
	// must beat one byte per node for sharing to be worth its complexity, and
	// out-arc ordinals must cut it by at least 40 %.
	if size[16][false] > nodes {
		t.Errorf("16×16 reply: %d bytes for %d path nodes", size[16][false], nodes)
	}
	if 10*size[16][true] > 6*size[16][false] {
		t.Errorf("16×16 reply: %d bytes bound to its map, %d bytes of node ids; want at most 0.6×", size[16][true], size[16][false])
	}
	t.Logf("16×16 reply: %d path nodes in %d bytes, %d bound to its map; 3×3: %d and %d bytes", nodes, size[16][false], size[16][true], size[3][false], size[3][true])
}

// TestArcReplyRoundTripProperty is the property test of the out-arc form:
// random walks on a map, shared the way shortest-path trees share them,
// with unreachable cells, duplicate endpoints, single-node paths and paths
// that are a prefix of another mixed in, decode to themselves and read back
// cell by cell. Parallel arcs resolve to their first.
func TestArcReplyRoundTripProperty(t *testing.T) {
	g := gridMap(7, 5)
	rng := rand.New(rand.NewSource(46))
	for iter := 0; iter < 200; iter++ {
		nS, nT := 1+rng.Intn(6), 1+rng.Intn(6)
		rep := ServerReply{QueryID: uint64(iter), Generation: 2, Map: g}
		srcs := make([]roadnet.NodeID, nS)
		for i := range srcs {
			srcs[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			if i > 0 && rng.Intn(4) == 0 {
				srcs[i] = srcs[i-1]
			}
		}
		dsts := make([]roadnet.NodeID, nT)
		for j := range dsts {
			dsts[j] = roadnet.NodeID(rng.Intn(g.NumNodes()))
		}
		for i := 0; i < nS; i++ {
			var row [][]roadnet.NodeID
			for j := 0; j < nT; j++ {
				c := CandidatePath{Source: srcs[i], Dest: dsts[j]}
				if rng.Intn(6) > 0 {
					nodes := []roadnet.NodeID{srcs[i]}
					if len(row) > 0 && rng.Intn(3) > 0 {
						prev := row[rng.Intn(len(row))]
						nodes = append(nodes[:0], prev[:1+rng.Intn(len(prev))]...)
					}
					for k := rng.Intn(12); k > 0; k-- {
						arcs := g.Arcs(nodes[len(nodes)-1])
						nodes = append(nodes, arcs[rng.Intn(len(arcs))].To)
					}
					c.Found, c.Cost, c.Nodes = true, float64(len(nodes)), nodes
					row = append(row, nodes)
				}
				rep.Paths = append(rep.Paths, c)
			}
		}
		payload, err := AppendMessage(nil, rep, 0)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if got := decodeOn(t, payload, g); !reflect.DeepEqual(got, rep) {
			t.Fatalf("iteration %d: decoded %+v\nwant %+v", iter, got, rep)
		}
		// Equal adjacent sources may make the table's shape another |S|×|T| of
		// the same cells; the cells are read in the shape it was sent as.
		held, _, _ := ReadHeldReply(payload)
		for c, want := range rep.Paths {
			var cell [1]CandidatePath
			if err := held.Reply().ReadCells(g, cell[:], [][2]int{{c / held.nT, c % held.nT}}); err != nil || !reflect.DeepEqual(cell[0], want) {
				t.Fatalf("iteration %d: cell %d read as %+v (err %v), want %+v", iter, c, cell[0], err, want)
			}
		}
	}
}

// TestArcRepliesNeedTheirMap: a reply bound to a map is read only against a
// map of its topology, and says so with a typed error, and a reply whose
// paths do not walk its map is not encoded.
func TestArcRepliesNeedTheirMap(t *testing.T) {
	g := gridMap(4, 4)
	other := gridMap(4, 5)
	rep := evaluatedReply(t, g, 3, 1)
	rep.Map = g
	payload, err := AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeMessage(payload); !errors.Is(err, ErrTopologyMismatch) {
		t.Errorf("DecodeMessage: err = %v, want ErrTopologyMismatch", err)
	}
	held, _, err := ReadHeldReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*roadnet.Graph{nil, other} {
		if _, err := held.Decode(m); !errors.Is(err, ErrTopologyMismatch) {
			t.Errorf("Decode on %v: err = %v, want ErrTopologyMismatch", m, err)
		}
		var cell [1]CandidatePath
		if err := held.Reply().ReadCells(m, cell[:], [][2]int{{0, 0}}); !errors.Is(err, ErrTopologyMismatch) {
			t.Errorf("ReadCells on %v: err = %v, want ErrTopologyMismatch", m, err)
		}
	}
	// Weights do not enter the topology: a reweighted copy reads it.
	heavier, err := g.WithUpdatedWeights([]roadnet.ArcWeightChange{{From: 0, To: 1, NewCost: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := held.Decode(heavier); err != nil || !reflect.DeepEqual(got.Paths, rep.Paths) {
		t.Errorf("Decode on the reweighted map: err %v", err)
	}

	for name, bend := range map[string]func([]roadnet.NodeID) []roadnet.NodeID{
		"not from its source": func(p []roadnet.NodeID) []roadnet.NodeID { return p[1:] },
		"a step off the map":  func(p []roadnet.NodeID) []roadnet.NodeID { return append(slices.Clone(p), p[0]+5) },
		"a node off the map":  func(p []roadnet.NodeID) []roadnet.NodeID { return append(slices.Clone(p), 99, 98) },
	} {
		bad := rep
		bad.Paths = slices.Clone(rep.Paths)
		bad.Paths[0].Nodes = bend(bad.Paths[0].Nodes)
		if _, err := AppendMessage(nil, bad, 0); !errors.Is(err, ErrTopologyMismatch) {
			t.Errorf("%s: err = %v, want ErrTopologyMismatch", name, err)
		}
	}
}

var (
	benchSink any
	benchLen  int
)

// BenchmarkReplyCodec measures the codec on recorded replies: encoding into a
// reused buffer (0 allocs/op), decoding (the candidate slab, the node arena
// and, for node ids, the boxing into any), reading one cell out of the held
// reply — what the obfuscator does for each member: validate the whole body,
// materialise one path — and relaying — what a fleet router does with a
// shard's reply: read its header and write the held bytes back out into a
// reused buffer. The -bound rows are the reply to a query that names its
// map, its paths out-arc ordinals on it.
func BenchmarkReplyCodec(b *testing.B) {
	for _, shape := range []struct {
		name  string
		side  int
		bound bool
	}{{"3x3", 3, false}, {"16x16", 16, false}, {"16x16-bound", 16, true}} {
		rep, g := recordedReply(b, shape.side)
		if !shape.bound {
			g = nil
		}
		rep.Map = g
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
				if g == nil {
					msg, _, err := DecodeMessage(payload)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = msg
					continue
				}
				held, _, err := ReadHeldReply(payload)
				if err != nil {
					b.Fatal(err)
				}
				if benchSink, err = held.Decode(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload)), "wire-bytes/op")
		})
		b.Run("cell/"+shape.name, func(b *testing.B) {
			held, _, err := ReadHeldReply(payload)
			if err != nil {
				b.Fatal(err)
			}
			reply := held.Reply()
			var c [1]CandidatePath
			at := [][2]int{{shape.side / 2, shape.side / 2}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := reply.ReadCells(g, c[:], at); err != nil {
					b.Fatal(err)
				}
				benchLen = len(c[0].Nodes)
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
