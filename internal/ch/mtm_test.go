package ch

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// randomComponentsGraph builds a graph of k islands, each a randomIntCostGraph-
// style strongly connected component, with no arcs between islands — so
// cross-island table cells must come out +Inf.
func randomComponentsGraph(t *testing.T, k, nodesPer, extraPer int, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := k * nodesPer
	g := roadnet.NewGraph(n, 2*n+k*extraPer)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	for c := 0; c < k; c++ {
		base := c * nodesPer
		perm := rng.Perm(nodesPer)
		for i := 1; i < nodesPer; i++ {
			g.MustAddBidirectionalEdge(roadnet.NodeID(base+perm[i-1]), roadnet.NodeID(base+perm[i]), float64(1+rng.Intn(20)))
		}
		for i := 0; i < extraPer; i++ {
			a := roadnet.NodeID(base + rng.Intn(nodesPer))
			b := roadnet.NodeID(base + rng.Intn(nodesPer))
			g.MustAddEdge(a, b, float64(1+rng.Intn(20)))
		}
	}
	g.Freeze()
	return g
}

// randomEndpointSet draws k node IDs, deliberately allowing duplicates.
func randomEndpointSet(rng *rand.Rand, n, k int) []roadnet.NodeID {
	out := make([]roadnet.NodeID, k)
	for i := range out {
		out[i] = roadnet.NodeID(rng.Intn(n))
	}
	return out
}

// checkTableAgainstReference asserts every cell of an MTM evaluation —
// distance-only and path-capable — equals per-pair ReferenceDijkstra on the
// same graph, and that every finite cell's path is a valid route realising
// exactly the cell distance.
func checkTableAgainstReference(t *testing.T, g *roadnet.Graph, m *MTM, sources, targets []roadnet.NodeID) {
	t.Helper()
	acc := storage.NewMemoryGraph(g)
	dists, _, err := m.Distances(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.Table(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		for j, d := range targets {
			want, _, err := search.ReferenceDijkstra(acc, s, d)
			if err != nil {
				t.Fatal(err)
			}
			wantDist := want.Cost
			if len(want.Nodes) == 0 && s != d {
				wantDist = math.Inf(1)
			}
			got := dists[i*len(targets)+j]
			if got != wantDist {
				t.Fatalf("cell (%d,%d) nodes (%d,%d): MTM distance %v, reference %v", i, j, s, d, got, wantDist)
			}
			if tbl.Dist(i, j) != wantDist {
				t.Fatalf("cell (%d,%d): Table distance %v, reference %v", i, j, tbl.Dist(i, j), wantDist)
			}
			p := tbl.Path(i, j)
			if math.IsInf(wantDist, 1) {
				if len(p.Nodes) != 0 {
					t.Fatalf("cell (%d,%d) unreachable but Table returned path %v", i, j, p.Nodes)
				}
				continue
			}
			if p.Cost != wantDist {
				t.Fatalf("cell (%d,%d): Table path cost %v, reference %v", i, j, p.Cost, wantDist)
			}
			checkPathValid(t, g, s, d, p)
		}
	}
}

// mtmPropertyGraphs are the random integer-cost graphs (randomIntCostGraph)
// the many-to-many property tests run on.
var mtmPropertyGraphs = []struct {
	n, extra int
	seed     int64
}{
	{n: 30, extra: 40, seed: 101},
	{n: 120, extra: 150, seed: 102},
	{n: 300, extra: 200, seed: 103},
	{n: 80, extra: 0, seed: 104},   // tree-ish: unique paths
	{n: 50, extra: 400, seed: 105}, // dense: many triangles
}

// TestMTMMatchesReferenceExact is the core many-to-many property on
// integer-cost random graphs: every cell of the table — duplicates, s == t
// cells and all — is byte-identical to per-pair reference Dijkstra, and
// every recorded path is a valid route.
func TestMTMMatchesReferenceExact(t *testing.T) {
	for _, tc := range mtmPropertyGraphs {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatalf("BuildCustomizable(n=%d): %v", tc.n, err)
		}
		m := NewMTM(o, nil)
		rng := rand.New(rand.NewSource(tc.seed * 31))
		for round := 0; round < 4; round++ {
			sources := randomEndpointSet(rng, tc.n, 1+rng.Intn(6))
			targets := randomEndpointSet(rng, tc.n, 1+rng.Intn(6))
			// Force degenerate cells into the mix: a source that is also a
			// target.
			if round == 0 {
				targets[0] = sources[0]
			}
			checkTableAgainstReference(t, g, m, sources, targets)
		}
	}
}

// TestMTMDisconnectedPairs evaluates tables spanning strongly connected
// islands with no arcs between them: cross-island cells must be +Inf (and
// pathless) while intra-island cells stay exact.
func TestMTMDisconnectedPairs(t *testing.T) {
	g := randomComponentsGraph(t, 3, 40, 50, 201)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMTM(o, nil)
	// Sources from island 0 and 1, targets from island 1 and 2: the table
	// mixes reachable and unreachable cells in both rows and columns.
	sources := []roadnet.NodeID{3, 17, 41, 62}
	targets := []roadnet.NodeID{45, 70, 81, 99, 110}
	checkTableAgainstReference(t, g, m, sources, targets)
}

// TestMTMAfterRoundTrip re-runs the reference property on an overlay that
// went through the OCH1 save/load round trip.
func TestMTMAfterRoundTrip(t *testing.T) {
	g := randomIntCostGraph(t, 150, 180, 301)
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
	m := NewMTM(loaded, nil)
	rng := rand.New(rand.NewSource(302))
	for round := 0; round < 3; round++ {
		checkTableAgainstReference(t, g, m,
			randomEndpointSet(rng, 150, 2+rng.Intn(5)),
			randomEndpointSet(rng, 150, 2+rng.Intn(5)))
	}
}

// TestMTMConcurrentTables runs many tables on one shared engine from
// concurrent goroutines and asserts each matches its precomputed
// expectation — the race detector makes this the concurrency-safety proof.
func TestMTMConcurrentTables(t *testing.T) {
	g := randomIntCostGraph(t, 200, 250, 401)
	acc := storage.NewMemoryGraph(g)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMTM(o, nil)

	type job struct {
		sources, targets []roadnet.NodeID
		want             []float64
	}
	rng := rand.New(rand.NewSource(402))
	jobs := make([]job, 12)
	for k := range jobs {
		sources := randomEndpointSet(rng, 200, 2+rng.Intn(4))
		targets := randomEndpointSet(rng, 200, 2+rng.Intn(4))
		want := make([]float64, len(sources)*len(targets))
		for i, s := range sources {
			for j, d := range targets {
				p, _, err := search.ReferenceDijkstra(acc, s, d)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Nodes) == 0 && s != d {
					want[i*len(targets)+j] = math.Inf(1)
				} else {
					want[i*len(targets)+j] = p.Cost
				}
			}
		}
		jobs[k] = job{sources: sources, targets: targets, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, jb := range jobs {
				got, _, err := m.Distances(jb.sources, jb.targets)
				if err != nil {
					errs <- err
					return
				}
				for c := range got {
					if got[c] != jb.want[c] {
						t.Errorf("concurrent table cell %d: got %v, want %v", c, got[c], jb.want[c])
						return
					}
				}
				tbl, err := m.Table(jb.sources, jb.targets)
				if err != nil {
					errs <- err
					return
				}
				for i := range jb.sources {
					for j := range jb.targets {
						if tbl.Dist(i, j) != jb.want[i*len(jb.targets)+j] {
							t.Errorf("concurrent Table cell (%d,%d) diverged", i, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMTMDistancesAllocFree pins the steady-state allocation contract of the
// distance-only table: with a reused output buffer, evaluations perform zero
// heap allocations.
func TestMTMDistancesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := randomIntCostGraph(t, 400, 500, 501)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMTM(o, nil)
	sources := []roadnet.NodeID{1, 40, 80, 120, 160, 200, 240, 280}
	targets := []roadnet.NodeID{5, 45, 85, 125, 165, 205, 245, 285}
	var dst []float64
	for i := 0; i < 4; i++ { // warm the state pool
		if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(30, func() {
		if dst, _, err = m.DistancesInto(dst, sources, targets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("distance-only table allocated %v times per run, want 0", allocs)
	}
}

// TestMTMEdgeCases covers input validation and the accessor binding rules of
// EvaluateTable and EvaluateDistances.
func TestMTMEdgeCases(t *testing.T) {
	g := randomIntCostGraph(t, 60, 60, 601)
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMTM(o, nil)

	if _, _, err := m.Distances(nil, []roadnet.NodeID{1}); err == nil {
		t.Fatal("empty source set accepted")
	}
	if _, _, err := m.Distances([]roadnet.NodeID{1}, nil); err == nil {
		t.Fatal("empty target set accepted")
	}
	if _, _, err := m.Distances([]roadnet.NodeID{-1}, []roadnet.NodeID{1}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, _, err := m.Distances([]roadnet.NodeID{1}, []roadnet.NodeID{99}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := m.Table([]roadnet.NodeID{1}, []roadnet.NodeID{99}); err == nil {
		t.Fatal("Table accepted an out-of-range target")
	}

	// s == t resolves to the degenerate single-node path.
	tbl, err := m.Table([]roadnet.NodeID{7}, []roadnet.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Dist(0, 0) != 0 {
		t.Fatalf("s==t distance = %v, want 0", tbl.Dist(0, 0))
	}
	if p := tbl.Path(0, 0); len(p.Nodes) != 1 || p.Nodes[0] != 7 || p.Cost != 0 {
		t.Fatalf("s==t path = %v", p)
	}

	// Accessor binding: a mismatched graph is rejected, the matching one
	// passes (twice, to cover the memoised path) and the distance-only face
	// carries no paths.
	acc := storage.NewMemoryGraph(g)
	other := randomIntCostGraph(t, 60, 60, 602)
	if _, err := m.EvaluateTable(storage.NewMemoryGraph(other), []roadnet.NodeID{2}, []roadnet.NodeID{3}); err == nil {
		t.Fatal("accessor for a different graph accepted")
	}
	// Same node count, one arc cost moved: the checksum binding refuses it.
	arc := g.Arcs(2)[0]
	same, err := g.WithUpdatedWeights([]roadnet.ArcWeightChange{{From: 2, To: arc.To, NewCost: arc.Cost + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateTable(storage.NewMemoryGraph(same), []roadnet.NodeID{2}, []roadnet.NodeID{3}); !errors.Is(err, search.ErrStaleEngine) {
		t.Fatalf("accessor with same shape but a different arc cost: err = %v, want ErrStaleEngine", err)
	}
	for i := 0; i < 2; i++ {
		res, err := m.EvaluateTable(acc, []roadnet.NodeID{2, 7}, []roadnet.NodeID{3, 9})
		if err != nil {
			t.Fatalf("matching accessor rejected on call %d: %v", i+1, err)
		}
		if !res.HasPaths() {
			t.Fatal("EvaluateTable result has no paths")
		}
		// Cell 0 is the pair (2, 3).
		if d := res.Dist[0]; math.IsInf(d, 1) {
			t.Fatalf("d(2,3) = %v", d)
		}
		if p := res.Path(0); len(p) == 0 || p[0] != 2 || p[len(p)-1] != 3 {
			t.Fatalf("path(2,3) = %v", p)
		}
	}
	res, err := m.EvaluateDistances(acc, []roadnet.NodeID{2, 7}, []roadnet.NodeID{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasPaths() {
		t.Fatal("EvaluateDistances materialised paths")
	}
	if p := res.Path(0); p != nil {
		t.Fatalf("distance-only result holds a path %v", p)
	}
	if d := res.Dist[0]; math.IsInf(d, 1) {
		t.Fatalf("distance-only d(2,3) = %v", d)
	}

	// Instrumentation moved.
	st := m.Stats()
	if st.Tables == 0 || st.BucketEntries == 0 || st.ArenaHighWater == 0 {
		t.Fatalf("engine stats did not accumulate: %+v", st)
	}
}

// requireArenaMatchesCells asserts that EvaluateTable's node arena holds,
// window by window, exactly what Table.AppendPath unpacks for each cell, and
// that Ends closes every window where those per-cell paths put it — so
// unpacking each chain arc once per table changes no node of the reply.
func requireArenaMatchesCells(t *testing.T, acc storage.Accessor, m *MTM, sources, targets []roadnet.NodeID) {
	t.Helper()
	res, err := m.EvaluateTable(acc, sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.Table(sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ends) != len(sources)*len(targets) {
		t.Fatalf("%d Ends for a %dx%d table", len(res.Ends), len(sources), len(targets))
	}
	var want []roadnet.NodeID
	end := 0
	for i := range sources {
		for j := range targets {
			c := i*len(targets) + j
			start := end
			want = tbl.AppendPath(want[:0], i, j)
			end += len(want)
			if int(res.Ends[c]) != end {
				t.Fatalf("cell (%d,%d): Ends %d, per-cell paths end at %d", i, j, res.Ends[c], end)
			}
			if got := res.Nodes[start:end]; !slices.Equal(got, want) {
				t.Fatalf("cell (%d,%d) nodes (%d,%d): arena window %v, AppendPath %v", i, j, sources[i], targets[j], got, want)
			}
		}
	}
	if len(res.Nodes) != end {
		t.Fatalf("arena holds %d nodes, the cells %d", len(res.Nodes), end)
	}
}

// TestEvaluateTableArenaMatchesAppendPath pins the output of the unpacking
// memo: on the property-test graphs (random endpoint sets, duplicates
// allowed), with explicitly duplicated sources and targets, and on a 16×16
// table over a TIGER-like map, where cells share most of their chain arcs.
func TestEvaluateTableArenaMatchesAppendPath(t *testing.T) {
	for _, tc := range mtmPropertyGraphs {
		g := randomIntCostGraph(t, tc.n, tc.extra, tc.seed)
		o, err := BuildCustomizable(g)
		if err != nil {
			t.Fatalf("BuildCustomizable(n=%d): %v", tc.n, err)
		}
		acc, m := storage.NewMemoryGraph(g), NewMTM(o, nil)
		rng := rand.New(rand.NewSource(tc.seed * 37))
		for round := 0; round < 4; round++ {
			requireArenaMatchesCells(t, acc, m,
				randomEndpointSet(rng, tc.n, 1+rng.Intn(8)),
				randomEndpointSet(rng, tc.n, 1+rng.Intn(8)))
		}
		a, b, c := roadnet.NodeID(1), roadnet.NodeID(tc.n/2), roadnet.NodeID(tc.n-1)
		requireArenaMatchesCells(t, acc, m, []roadnet.NodeID{a, a, b, a}, []roadnet.NodeID{c, b, c, c})
	}

	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 3000
	cfg.Seed = 42
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	requireArenaMatchesCells(t, storage.NewMemoryGraph(g), NewMTM(o, nil),
		randomEndpointSet(rng, g.NumNodes(), 16), randomEndpointSet(rng, g.NumNodes(), 16))
}

// TestEvaluateTableAllocs pins the allocation budget of one path-producing
// Q(S, T) evaluation on the many-to-many engine: the arc chains live in the
// pooled state and are unpacked into its scratch arena, which the result's
// node arena is copied from once, exactly sized — so a table of any shape
// costs the result's own five arrays (Dist, Sources, Dests, Ends, Nodes) and
// nothing else. The 16×16 row is the one whose arena a growing append would
// have reallocated several times.
func TestEvaluateTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 3000
	cfg.Seed = 42
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	acc, m := storage.NewMemoryGraph(g), NewMTM(o, nil)
	for _, tc := range []struct {
		k         int
		maxAllocs float64
	}{{1, 5}, {2, 5}, {3, 5}, {16, 5}} {
		sources, targets := make([]roadnet.NodeID, tc.k), make([]roadnet.NodeID, tc.k)
		for i := range sources {
			sources[i], targets[i] = roadnet.NodeID((17+311*i)%g.NumNodes()), roadnet.NodeID((1500+97*i)%g.NumNodes())
		}
		evaluate := func() {
			if _, err := m.EvaluateTable(acc, sources, targets); err != nil {
				t.Fatal(err)
			}
		}
		evaluate() // warm the state pool
		if allocs := testing.AllocsPerRun(50, evaluate); allocs > tc.maxAllocs {
			t.Errorf("%dx%d table with paths allocated %v times per evaluation, want at most %v", tc.k, tc.k, allocs, tc.maxAllocs)
		} else {
			t.Logf("%dx%d: %v allocs", tc.k, tc.k, allocs)
		}
	}
}
