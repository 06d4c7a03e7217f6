package ch

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// randomIntCostGraph builds a random connected directed graph whose costs are
// small integers. Integer costs make every shortest-path distance exactly
// representable however the additions associate, so CH distances (sums of
// shortcut costs) must be byte-identical to reference Dijkstra distances.
func randomIntCostGraph(t testing.TB, n int, extraArcs int, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n, 2*n+extraArcs)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	// A bidirectional random chain guarantees strong connectivity.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(perm[i-1]), roadnet.NodeID(perm[i]), float64(1+rng.Intn(20)))
	}
	for i := 0; i < extraArcs; i++ {
		a := roadnet.NodeID(rng.Intn(n))
		b := roadnet.NodeID(rng.Intn(n))
		g.MustAddEdge(a, b, float64(1+rng.Intn(20))) // directed extras, self-loops included
	}
	g.Freeze()
	return g
}

// checkPathValid asserts p is a real route on g from s to t whose arc costs
// sum to its Cost.
func checkPathValid(t *testing.T, g *roadnet.Graph, s, d roadnet.NodeID, p search.Path) {
	t.Helper()
	if len(p.Nodes) == 0 {
		t.Fatalf("empty path for reachable pair (%d,%d)", s, d)
	}
	if p.Nodes[0] != s || p.Nodes[len(p.Nodes)-1] != d {
		t.Fatalf("path (%d,%d) has endpoints %d..%d", s, d, p.Nodes[0], p.Nodes[len(p.Nodes)-1])
	}
	sum := 0.0
	for i := 1; i < len(p.Nodes); i++ {
		c, ok := g.ArcCost(p.Nodes[i-1], p.Nodes[i])
		if !ok {
			t.Fatalf("path (%d,%d) uses nonexistent arc %d→%d", s, d, p.Nodes[i-1], p.Nodes[i])
		}
		sum += c
	}
	if math.Abs(sum-p.Cost) > 1e-9*(1+p.Cost) {
		t.Fatalf("path (%d,%d) cost %v but arcs sum to %v", s, d, p.Cost, sum)
	}
}

// TestCHMatchesReferenceExact is the core correctness property on
// integer-cost random graphs: CH distances are byte-identical to the
// fresh-slice reference Dijkstra for every sampled pair, and CH paths are
// valid routes realising exactly that distance. (Node sequences may differ
// when several shortest paths tie; cost equality is the contract.)
func TestCHMatchesReferenceExact(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     int64
	}{
		{n: 30, extra: 40, seed: 1},
		{n: 120, extra: 150, seed: 2},
		{n: 300, extra: 200, seed: 3},
		{n: 80, extra: 0, seed: 4},   // tree-ish: unique paths
		{n: 50, extra: 400, seed: 5}, // dense: many triangles
	}
	for _, tc := range cases {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		acc := storage.NewMemoryGraph(g)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatalf("BuildCustomizable(n=%d): %v", tc.n, err)
		}
		eng, mtm := NewEngine(o, nil), NewMTM(o, nil)
		rng := rand.New(rand.NewSource(tc.seed * 977))
		for q := 0; q < 150; q++ {
			s := roadnet.NodeID(rng.Intn(tc.n))
			d := roadnet.NodeID(rng.Intn(tc.n))
			want, _, err := search.ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			gotDist, _, err := pointDistance(mtm, s, d)
			if err != nil {
				t.Fatal(err)
			}
			wantDist := want.Cost
			if len(want.Nodes) == 0 && s != d {
				wantDist = math.Inf(1)
			}
			if gotDist != wantDist {
				t.Fatalf("n=%d seed=%d pair (%d,%d): CH distance %v, reference %v", tc.n, tc.seed, s, d, gotDist, wantDist)
			}
			gotPath, _, err := eng.Path(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(wantDist, 1) {
				if len(gotPath.Nodes) != 0 {
					t.Fatalf("pair (%d,%d) unreachable but CH returned path %v", s, d, gotPath.Nodes)
				}
				continue
			}
			if gotPath.Cost != wantDist {
				t.Fatalf("pair (%d,%d): CH path cost %v, reference %v", s, d, gotPath.Cost, wantDist)
			}
			checkPathValid(t, g, s, d, gotPath)
		}
	}
}

// TestCHOnGeneratedRoadNetwork runs the same property on the repository's
// tiger-like generator, whose float costs make ulp-level divergence between
// differently associated sums possible; distances must agree to relative
// 1e-9.
func TestCHOnGeneratedRoadNetwork(t *testing.T) {
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 1500
	cfg.Seed = 99
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := storage.NewMemoryGraph(g)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(o, nil)
	rng := rand.New(rand.NewSource(991))
	for q := 0; q < 80; q++ {
		s := roadnet.NodeID(rng.Intn(g.NumNodes()))
		d := roadnet.NodeID(rng.Intn(g.NumNodes()))
		want, _, err := search.ReferenceDijkstra(acc, s, d)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Nodes) == 0 {
			if len(got.Nodes) != 0 && s != d {
				t.Fatalf("pair (%d,%d): reference unreachable, CH found %v", s, d, got.Cost)
			}
			continue
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9*(1+want.Cost) {
			t.Fatalf("pair (%d,%d): CH %v vs reference %v", s, d, got.Cost, want.Cost)
		}
		checkPathValid(t, g, s, d, got)
	}
}

// TestCHRoundTrip persists an overlay and asserts the loaded copy is
// structurally identical and answers every sampled query byte-identically to
// the original — the save/load half of the acceptance property.
func TestCHRoundTrip(t *testing.T) {
	g := randomIntCostGraph(t, 200, 250, 7)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(o, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Matches(g); err != nil {
		t.Fatalf("loaded overlay does not match source graph: %v", err)
	}
	if loaded.NumNodes() != o.NumNodes() || loaded.NumShortcuts() != o.NumShortcuts() ||
		loaded.NumOriginalArcs() != o.NumOriginalArcs() || loaded.MaxLevel() != o.MaxLevel() {
		t.Fatalf("loaded overlay shape differs: %v vs %v", loaded, o)
	}
	for v := 0; v < o.NumNodes(); v++ {
		id := roadnet.NodeID(v)
		if loaded.Rank(id) != o.Rank(id) || loaded.Level(id) != o.Level(id) {
			t.Fatalf("node %d: rank/level differ after round-trip", v)
		}
	}
	orig, reread := NewEngine(o, nil), NewEngine(loaded, nil)
	origMTM, rereadMTM := NewMTM(o, nil), NewMTM(loaded, nil)
	rng := rand.New(rand.NewSource(71))
	for q := 0; q < 120; q++ {
		s := roadnet.NodeID(rng.Intn(200))
		d := roadnet.NodeID(rng.Intn(200))
		d1, _, err1 := pointDistance(origMTM, s, d)
		d2, _, err2 := pointDistance(rereadMTM, s, d)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d1 != d2 && !(math.IsInf(d1, 1) && math.IsInf(d2, 1)) {
			t.Fatalf("pair (%d,%d): distance %v before save, %v after load", s, d, d1, d2)
		}
		p1, _, _ := orig.Path(s, d)
		p2, _, _ := reread.Path(s, d)
		if len(p1.Nodes) != len(p2.Nodes) || p1.Cost != p2.Cost {
			t.Fatalf("pair (%d,%d): path changed across round-trip", s, d)
		}
		for i := range p1.Nodes {
			if p1.Nodes[i] != p2.Nodes[i] {
				t.Fatalf("pair (%d,%d): path node %d changed across round-trip", s, d, i)
			}
		}
	}
}

// TestReadRejectsCorruption covers the envelope validation: bad magic, a
// flipped payload byte (checksum), truncation, and a version from the
// future.
func TestReadRejectsCorruption(t *testing.T) {
	g := randomIntCostGraph(t, 40, 40, 11)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(o, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'X'
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want magic error, got %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[4] = 0xFF // little-endian version low byte
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[len(bad)/2] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted payload accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(good[:len(good)-10])); err == nil {
			t.Fatal("truncated file accepted")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, good...), 0xAB)
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatal("file with data after the checksum trailer accepted")
		}
	})
	t.Run("non-chaining shortcut children", func(t *testing.T) {
		// A 3-cycle forces exactly one shortcut (2→1 via 0). Repoint its
		// second child at an arc that does not continue from the first:
		// the file's CRC is rewritten honestly, so only the chaining
		// validation can catch it.
		cyc := roadnet.NewGraph(3, 3)
		for i := 0; i < 3; i++ {
			cyc.AddNode(float64(i), 0)
		}
		cyc.MustAddEdge(0, 1, 3)
		cyc.MustAddEdge(1, 2, 4)
		cyc.MustAddEdge(2, 0, 5)
		cyc.Freeze()
		o, err := BuildCustomizable(cyc)
		if err != nil {
			t.Fatal(err)
		}
		if o.NumShortcuts() != 1 {
			t.Fatalf("expected exactly 1 shortcut, got %d", o.NumShortcuts())
		}
		sc := &o.arcs[len(o.arcs)-1]
		sc.childB = 1 // arc 1→2 does not chain after childA's head
		var buf bytes.Buffer
		if err := Write(o, &buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("shortcut with non-chaining children accepted")
		}
	})
	t.Run("lying header counts", func(t *testing.T) {
		// A header advertising huge (but individually plausible) counts with
		// no data behind it must fail on the stream running dry — quickly
		// and without committing gigabytes of slices up front.
		var buf bytes.Buffer
		bw, err := storage.NewBinaryWriter(&buf, OverlayMagic, OverlayVersion)
		if err != nil {
			t.Fatal(err)
		}
		bw.U32(1 << 29) // nodes
		bw.U32(1 << 29) // graphArcs
		bw.U64(0)       // checksum
		bw.U32(1 << 20) // nOriginal
		bw.U32(1 << 29) // totalArcs
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("header with absent payload accepted")
		}
	})
	t.Run("wrong graph", func(t *testing.T) {
		other := randomIntCostGraph(t, 40, 40, 12)
		loaded, err := Read(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Matches(other); err == nil {
			t.Fatal("overlay matched a different graph")
		}
	})
}

// TestEngineEdgeCases covers s == t, invalid endpoints and unreachable pairs
// on a disconnected graph through the Engine face and the 1×1 distance
// table. MTM's accessor binding is covered by TestMTMEdgeCases.
func TestEngineEdgeCases(t *testing.T) {
	g := roadnet.NewGraph(4, 2)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddBidirectionalEdge(0, 1, 5) // component {0,1}; {2,3} disconnected
	g.MustAddBidirectionalEdge(2, 3, 7)
	g.Freeze()
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, mtm := NewEngine(o, nil), NewMTM(o, nil)

	p, _, err := eng.Path(1, 1)
	if err != nil || len(p.Nodes) != 1 || p.Cost != 0 {
		t.Fatalf("s==t: got %v, %v", p, err)
	}
	p, _, err = eng.Path(0, 1)
	if err != nil || len(p.Nodes) != 2 || p.Nodes[0] != 0 || p.Nodes[1] != 1 || p.Cost != 5 {
		t.Fatalf("adjacent pair path: got %v, %v; want [0 1] at 5", p, err)
	}
	d, _, err := pointDistance(mtm, 0, 2)
	if err != nil || !math.IsInf(d, 1) {
		t.Fatalf("disconnected pair: got %v, %v", d, err)
	}
	p, _, err = eng.Path(0, 2)
	if err != nil || len(p.Nodes) != 0 {
		t.Fatalf("disconnected pair path: got %v, %v", p, err)
	}
	if _, _, err := eng.Path(-1, 0); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, _, err := eng.Path(0, 99); err == nil {
		t.Fatal("out-of-range dest accepted")
	}
	if _, _, err := pointDistance(mtm, 0, 99); err == nil {
		t.Fatal("out-of-range dest accepted by the distance table")
	}
}

// pointDistance answers one s→d distance query the way every overlay caller
// does: a 1×1 table into a one-cell buffer.
func pointDistance(m *MTM, s, d roadnet.NodeID) (float64, search.Stats, error) {
	var cell [1]float64
	out, stats, err := m.DistancesInto(cell[:], []roadnet.NodeID{s}, []roadnet.NodeID{d})
	if err != nil {
		return 0, stats, err
	}
	return out[0], stats, nil
}

// TestDistanceQueryAllocFree pins the steady-state allocation contract of
// point queries: after warmup, a 1×1 distance table into a reused one-cell
// buffer — two tree walks on the pooled state — performs zero heap
// allocations.
func TestDistanceQueryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := randomIntCostGraph(t, 400, 500, 31)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMTM(o, nil)
	sources, targets := []roadnet.NodeID{1}, []roadnet.NodeID{200}
	dst := make([]float64, 1)
	// Warm the pool so the measured runs reuse sized state. Sequential
	// queries check out and return one state each.
	for i := 0; i < 4; i++ {
		if _, _, err := m.DistancesInto(dst, sources, targets); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := m.DistancesInto(dst, sources, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("distance query allocated %v times per run, want 0", allocs)
	}
}

// TestBuildRejectsBadInput covers the builder's input validation.
func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := BuildCustomizable(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := roadnet.NewGraph(2, 1)
	g.AddNode(0, 0)
	g.AddNode(1, 1)
	g.MustAddEdge(0, 1, 1)
	if _, err := BuildCustomizable(g); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
	g.Freeze()
	if _, err := BuildCustomizable(g); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}
