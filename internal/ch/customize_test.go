package ch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// randomWeightChanges picks k existing arcs of g uniformly and assigns them
// fresh small-integer costs.
func randomWeightChanges(g *roadnet.Graph, rng *rand.Rand, k int) []roadnet.ArcWeightChange {
	changes := make([]roadnet.ArcWeightChange, 0, k)
	n := g.NumNodes()
	for len(changes) < k {
		v := roadnet.NodeID(rng.Intn(n))
		arcs := g.Arcs(v)
		if len(arcs) == 0 {
			continue
		}
		a := arcs[rng.Intn(len(arcs))]
		changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: float64(1 + rng.Intn(30))})
	}
	return changes
}

// checkAgainstReference asserts, for sampled pairs, that the engine's
// distances and the MTM engine's table cells equal reference Dijkstra on
// exactly the graph acc presents — the current metric, never a stale one.
// Integer costs make the comparison exact.
func checkAgainstReference(t *testing.T, acc storage.Accessor, o *Overlay, queries int, seed int64) {
	t.Helper()
	g := acc.Graph()
	eng := NewEngine(o, nil)
	mtm := NewMTM(o, nil)
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	S := make([]roadnet.NodeID, 4)
	T := make([]roadnet.NodeID, 4)
	for i := range S {
		S[i] = roadnet.NodeID(rng.Intn(n))
		T[i] = roadnet.NodeID(rng.Intn(n))
	}
	tbl, _, err := mtm.Distances(S, T)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range S {
		for j, d := range T {
			want, _, err := search.ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			wantDist := want.Cost
			if len(want.Nodes) == 0 && s != d {
				wantDist = math.Inf(1)
			}
			if got := tbl[i*len(T)+j]; got != wantDist {
				t.Fatalf("MTM cell (%d,%d): got %v, reference %v", s, d, got, wantDist)
			}
		}
	}
	for q := 0; q < queries; q++ {
		s := roadnet.NodeID(rng.Intn(n))
		d := roadnet.NodeID(rng.Intn(n))
		want, _, err := search.ReferenceDijkstra(acc, s, d)
		if err != nil {
			t.Fatal(err)
		}
		wantDist := want.Cost
		if len(want.Nodes) == 0 && s != d {
			wantDist = math.Inf(1)
		}
		gotDist, _, err := pointDistance(mtm, s, d)
		if err != nil {
			t.Fatal(err)
		}
		if gotDist != wantDist {
			t.Fatalf("pair (%d,%d): CH distance %v, reference %v", s, d, gotDist, wantDist)
		}
		if math.IsInf(wantDist, 1) {
			continue
		}
		gotPath, _, err := eng.Path(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if gotPath.Cost != wantDist {
			t.Fatalf("pair (%d,%d): CH path cost %v, reference %v", s, d, gotPath.Cost, wantDist)
		}
		checkPathValid(t, g, s, d, gotPath)
	}
}

// TestCustomizableBuildMatchesReference: a customizable overlay (structure
// from metric-independent contraction, weights from the customization pass)
// answers exactly like reference Dijkstra and binds to its source graph.
func TestCustomizableBuildMatchesReference(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     int64
	}{
		{n: 30, extra: 40, seed: 11},
		{n: 120, extra: 150, seed: 12},
		{n: 80, extra: 0, seed: 13},   // tree-ish: unique paths
		{n: 50, extra: 400, seed: 14}, // dense: many triangles
	}
	for _, tc := range cases {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatalf("BuildCustomizable(n=%d): %v", tc.n, err)
		}
		if o.Checksum() != GraphChecksum(g) || o.TopologyChecksum() != g.TopologyChecksum() {
			t.Fatal("customizable overlay checksums do not bind to the source graph")
		}
		checkAgainstReference(t, storage.NewMemoryGraph(g), o, 120, tc.seed*31)
	}
}

// TestRecustomizeTracksWeightUpdates is the acceptance property: after a
// random sequence of weight updates, a re-customized overlay answers every
// sampled query (point queries and many-to-many tables) exactly like
// reference Dijkstra on the *current* graph — never the pre-update one —
// including save/load round-trips between updates.
func TestRecustomizeTracksWeightUpdates(t *testing.T) {
	for _, tc := range []struct {
		n, extra int
		seed     int64
	}{
		{n: 60, extra: 80, seed: 21},
		{n: 150, extra: 200, seed: 22},
	} {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed * 101))
		for round := 0; round < 6; round++ {
			g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rng, 1+rng.Intn(12)))
			if err != nil {
				t.Fatal(err)
			}
			// The pre-update overlay must refuse to serve the new graph.
			if err := o.Matches(g2); err == nil {
				t.Fatal("stale overlay claims to match the updated graph")
			}
			o2, err := o.Recustomize(g2)
			if err != nil {
				t.Fatalf("round %d: Recustomize: %v", round, err)
			}
			if err := o2.Matches(g2); err != nil {
				t.Fatalf("round %d: recustomized overlay does not match updated graph: %v", round, err)
			}
			checkAgainstReference(t, storage.NewMemoryGraph(g2), o2, 60, tc.seed*7+int64(round))
			// The old overlay still matches — and answers for — its own graph.
			if err := o.Matches(g); err != nil {
				t.Fatalf("round %d: old overlay lost its own graph: %v", round, err)
			}
			if round == 3 {
				// Round-trip the recustomized overlay through persistence.
				var buf bytes.Buffer
				if err := Write(o2, &buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Read(&buf)
				if err != nil {
					t.Fatalf("round %d: reading recustomized overlay: %v", round, err)
				}
				checkAgainstReference(t, storage.NewMemoryGraph(g2), loaded, 30, tc.seed*13)
				o2 = loaded
			}
			g, o = g2, o2
		}
	}
}

// TestRecustomizeRejectsMisuse pins the error paths: a nil graph and
// topology changes are refused.
func TestRecustomizeRejectsMisuse(t *testing.T) {
	g := randomIntCostGraph(t, 40, 60, 31)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Recustomize(nil); err == nil {
		t.Fatal("Recustomize(nil) succeeded")
	}
	other := randomIntCostGraph(t, 40, 60, 32) // same sizes, different topology
	if other.NumArcs() == g.NumArcs() {
		if _, err := o.Recustomize(other); err == nil {
			t.Fatal("Recustomize accepted a graph with different topology")
		}
	}
}

// TestIncrementalChecksumMatchesRecompute: the checksum carried across
// WithUpdatedWeights (XOR-fold delta) equals a from-scratch recompute of the
// updated graph, and the topology checksum never moves.
func TestIncrementalChecksumMatchesRecompute(t *testing.T) {
	g := randomIntCostGraph(t, 80, 120, 41)
	topo := g.TopologyChecksum()
	rng := rand.New(rand.NewSource(42))
	cur := g
	for round := 0; round < 10; round++ {
		next, err := cur.WithUpdatedWeights(randomWeightChanges(cur, rng, 1+rng.Intn(8)))
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild an identical graph from scratch and compare checksums.
		fresh := next.Clone()
		fresh.Freeze()
		if got, want := next.ContentChecksum(), fresh.ContentChecksum(); got != want {
			t.Fatalf("round %d: incremental checksum %016x, recomputed %016x", round, got, want)
		}
		if next.TopologyChecksum() != topo {
			t.Fatalf("round %d: topology checksum moved on a weight-only update", round)
		}
		cur = next
	}
	// A no-op update (same costs) must not move the content checksum.
	arcs := cur.Arcs(0)
	if len(arcs) > 0 {
		same, err := cur.WithUpdatedWeights([]roadnet.ArcWeightChange{{From: 0, To: arcs[0].To, NewCost: arcs[0].Cost}})
		if err != nil {
			t.Fatal(err)
		}
		if same.ContentChecksum() != cur.ContentChecksum() {
			t.Fatal("no-op weight update moved the content checksum")
		}
	}
}

// checkSameWeightLayer asserts an incrementally re-customized overlay equals
// the full pass arc for arc: equal cost on every arena arc, unpack children
// that add up to their arc (the two passes may break ties between equally
// cheap triangles differently, so children are compared by sum, not by
// index), child-free arcs only where a road segment's own cost is the
// minimum, and CSR cost copies in step with the arena.
func checkSameWeightLayer(t *testing.T, inc, full *Overlay) {
	t.Helper()
	for i := range full.arcs {
		a := &inc.arcs[i]
		switch {
		case a.cost != full.arcs[i].cost:
			t.Fatalf("arena arc %d (%d→%d): incremental cost %v, full cost %v", i, a.from, a.to, a.cost, full.arcs[i].cost)
		case a.childA >= 0 && a.childB >= 0:
			if sum := inc.arcs[a.childA].cost + inc.arcs[a.childB].cost; sum != a.cost {
				t.Fatalf("arena arc %d costs %v but its children %d+%d sum to %v", i, a.cost, a.childA, a.childB, sum)
			}
		case i >= inc.nOriginal:
			t.Fatalf("shortcut %d has no unpack children", i)
		case a.cost != inc.baseCost[i]:
			t.Fatalf("original arc %d is child-free at cost %v, its road segment costs %v", i, a.cost, inc.baseCost[i])
		}
	}
	for j, ai := range inc.fwdArc {
		if inc.fwdCost[j] != inc.arcs[ai].cost {
			t.Fatalf("fwd CSR slot %d holds %v, arena arc %d costs %v", j, inc.fwdCost[j], ai, inc.arcs[ai].cost)
		}
	}
	for j, ai := range inc.bwdArc {
		if inc.bwdCost[j] != inc.arcs[ai].cost {
			t.Fatalf("bwd CSR slot %d holds %v, arena arc %d costs %v", j, inc.bwdCost[j], ai, inc.arcs[ai].cost)
		}
	}
}

// TestRecustomizeIncrementalMatchesFull is the arc-level pass's acceptance
// property: over random update sequences — pure increases, pure decreases,
// exact reverts to an earlier graph, no-ops, with interior, boundary,
// cross-cell and parallel arcs in every change set — chaining
// RecustomizeIncremental produces, round after round, the weight layer a full
// Recustomize produces from scratch, and answers like reference Dijkstra. It
// holds on unpartitioned overlays, on every partition shape of the battery,
// and on an overlay loaded from its OCH1 file.
func TestRecustomizeIncrementalMatchesFull(t *testing.T) {
	graphs := map[string]*roadnet.Graph{
		"grid":   gridIntCostGraph(t, 14, 10, 31, 5),
		"random": randomIntCostGraph(t, 140, 180, 31),
	}
	for gname, g := range graphs {
		parts := buildTestPartitions(t, g)
		cut, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		parts["six-cells"] = cut
		overlays := map[string]*Overlay{}
		for pname, p := range parts {
			o, err := BuildCustomizablePartitioned(g, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, pname, err)
			}
			overlays[pname] = o
		}
		if overlays["unpartitioned"], err = BuildCustomizable(g); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(overlays["six-cells"], &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Matches(g); err != nil {
			t.Fatal(err)
		}
		overlays["loaded"] = loaded

		for oname, o := range overlays {
			rng := rand.New(rand.NewSource(32))
			history := []*roadnet.Graph{g}
			for round := 0; round < 8; round++ {
				cur := history[len(history)-1]
				var next *roadnet.Graph
				switch round % 4 {
				case 0: // increases
					next, err = cur.WithUpdatedWeights(classifiedChanges(cur, cut, rng, func(c float64) float64 { return c + float64(1+rng.Intn(12)) }))
				case 1: // decreases
					next, err = cur.WithUpdatedWeights(classifiedChanges(cur, cut, rng, func(c float64) float64 { return math.Max(1, c-float64(1+rng.Intn(12))) }))
				case 2: // exact revert of the last round
					next = history[len(history)-2]
				case 3: // no-op
					next, err = cur.WithUpdatedWeights(classifiedChanges(cur, cut, rng, nil))
				}
				if err != nil {
					t.Fatal(err)
				}
				inc, stats, err := o.RecustomizeIncremental(next)
				if err != nil {
					t.Fatalf("%s/%s round %d: incremental: %v", gname, oname, round, err)
				}
				if stats.Full {
					t.Fatalf("%s/%s round %d: fell back to the full pass", gname, oname, round)
				}
				if noop := round%4 == 3; noop != (stats.ArcsRederived == 0) {
					t.Fatalf("%s/%s round %d: re-derived %d arcs", gname, oname, round, stats.ArcsRederived)
				}
				full, err := o.Recustomize(next)
				if err != nil {
					t.Fatalf("%s/%s round %d: full: %v", gname, oname, round, err)
				}
				checkSameWeightLayer(t, inc, full)
				checkAgainstReference(t, storage.NewMemoryGraph(next), inc, 15, int64(round)*17+41)
				history, o = append(history, next), inc
			}
		}
	}
}

// tigerLikeFeed builds the shape the end-to-end benchmark's churn workload
// runs on — a TigerLike map cut into cells, its partitioned customizable
// overlay, and a feed of arcs half inside one cell, half scattered — and
// returns the overlay with the two graphs the feed toggles between: base
// costs and double costs on the fed arcs.
func tigerLikeFeed(tb testing.TB, nodes, cells, arcs int) (*Overlay, [2]*roadnet.Graph) {
	tb.Helper()
	g, p, o := tigerLikeOverlay(tb, nodes, cells, 20090329)
	rng := rand.New(rand.NewSource(7))
	cell := p.CellNodes(rng.Intn(cells))
	var high []roadnet.ArcWeightChange
	for len(high) < arcs {
		u := roadnet.NodeID(rng.Intn(g.NumNodes()))
		if len(high) < arcs/2 {
			u = cell[rng.Intn(len(cell))]
		}
		if out := g.Arcs(u); len(out) > 0 {
			a := out[rng.Intn(len(out))]
			high = append(high, roadnet.ArcWeightChange{From: u, To: a.To, NewCost: 2 * a.Cost})
		}
	}
	hi, err := g.WithUpdatedWeights(high)
	if err != nil {
		tb.Fatal(err)
	}
	return o, [2]*roadnet.Graph{hi, g}
}

// tigerLikeMap generates a TigerLike map and its partition into cells; p is
// nil when cells is 0.
func tigerLikeMap(tb testing.TB, nodes, cells int, seed uint64) (*roadnet.Graph, *roadnet.Partition) {
	tb.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind, cfg.Nodes, cfg.Seed = gen.TigerLike, nodes, seed
	g, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var p *roadnet.Partition
	if cells > 0 {
		if p, err = roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: cells}); err != nil {
			tb.Fatal(err)
		}
	}
	return g, p
}

// tigerLikeOverlay generates a TigerLike map and builds its overlay, flat
// when cells is 0 (p is then nil).
func tigerLikeOverlay(tb testing.TB, nodes, cells int, seed uint64) (*roadnet.Graph, *roadnet.Partition, *Overlay) {
	tb.Helper()
	g, p := tigerLikeMap(tb, nodes, cells, seed)
	o, err := BuildCustomizablePartitioned(g, p)
	if err != nil {
		tb.Fatal(err)
	}
	return g, p, o
}

// TestRecustomizeIncrementalToggleIsSymmetric is the work bound: toggling a
// set of arcs up and back down re-derives the same arcs both ways, a small
// fraction of the arena. A dirty-set closure that must assume the worst about
// a cheaper leg — any triangle through it might now win — re-derives a large
// part of the hierarchy on every decrease; comparing old and new leg sums
// does not.
func TestRecustomizeIncrementalToggleIsSymmetric(t *testing.T) {
	o, graphs := tigerLikeFeed(t, 2500, 8, 20)
	up, upStats, err := o.RecustomizeIncremental(graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	down, downStats, err := up.RecustomizeIncremental(graphs[1])
	if err != nil {
		t.Fatal(err)
	}
	if upStats.ArcsRederived != downStats.ArcsRederived {
		t.Fatalf("toggle re-derived %d arcs on the way up, %d on the way down", upStats.ArcsRederived, downStats.ArcsRederived)
	}
	if n := upStats.ArcsRederived; n < 20 || n > len(o.arcs)/20 {
		t.Fatalf("20 changed arcs re-derived %d of %d arena arcs", n, len(o.arcs))
	}
	checkSameWeightLayer(t, down, o)
}

// BenchmarkRecustomizeIncremental measures one weight-update batch on the
// end-to-end benchmark's churn shape: a 10k-node TigerLike map in 16 cells,
// 20 arcs toggled between base and double cost.
func BenchmarkRecustomizeIncremental(b *testing.B) {
	o, graphs := tigerLikeFeed(b, 10000, 16, 20)
	arcs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, stats, err := o.RecustomizeIncremental(graphs[i%2])
		if err != nil {
			b.Fatal(err)
		}
		o, arcs = next, arcs+stats.ArcsRederived
	}
	b.ReportMetric(float64(arcs)/float64(b.N), "arcs/op")
}

// BenchmarkRecustomizeFull is the full pass on the same feed: every triangle
// of the overlay re-derived for the same 20-arc toggle. Beside
// BenchmarkRecustomizeIncremental it gives the incremental-vs-full ratio.
func BenchmarkRecustomizeFull(b *testing.B) {
	o, graphs := tigerLikeFeed(b, 10000, 16, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := o.Recustomize(graphs[i%2])
		if err != nil {
			b.Fatal(err)
		}
		o = next
	}
}
