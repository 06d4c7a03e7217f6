package ch

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// oneWayGraph builds a strongly connected graph whose arcs are all one-way: a
// directed ring through a random permutation plus one-way chords. Its
// customizable contraction inserts only in×out shortcuts, so upward
// neighbourhoods are not cliques — the case a tree taken from each node's
// lowest-ranked upward neighbour gets wrong.
func oneWayGraph(t *testing.T, n, chords int, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n, n+chords)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	perm := rng.Perm(n)
	for i := range perm {
		g.MustAddEdge(roadnet.NodeID(perm[i]), roadnet.NodeID(perm[(i+1)%n]), float64(1+rng.Intn(20)))
	}
	for i := 0; i < chords; i++ {
		if a, b := roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n)); a != b {
			g.MustAddEdge(a, b, float64(1+rng.Intn(20)))
		}
	}
	g.Freeze()
	return g
}

// treeWalkShape is one graph and a customizable overlay answering for it.
type treeWalkShape struct {
	name string
	g    *roadnet.Graph
	o    *Overlay
}

// treeWalkShapes builds customizable overlays of every shape the
// elimination-tree walk must handle: flat, partitioned, one-way arcs only,
// islands (a forest), and two derived generations — the partitioned overlay
// after a Write/Read round trip, and that one after RecustomizeIncremental.
func treeWalkShapes(t *testing.T) []treeWalkShape {
	t.Helper()
	var shapes []treeWalkShape
	add := func(name string, g *roadnet.Graph, o *Overlay, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes = append(shapes, treeWalkShape{name, g, o})
	}

	flat := randomIntCostGraph(t, 150, 200, 901)
	o, err := BuildCustomizable(flat)
	add("flat", flat, o, err)

	grid := gridIntCostGraph(t, 14, 10, 902, 5)
	p, err := roadnet.BuildPartition(grid, roadnet.PartitionConfig{Cells: 6, Seed: 903})
	if err != nil {
		t.Fatal(err)
	}
	part, err := BuildCustomizablePartitioned(grid, p)
	add("partitioned", grid, part, err)

	oneWay := oneWayGraph(t, 120, 160, 904)
	o, err = BuildCustomizable(oneWay)
	add("one-way", oneWay, o, err)

	islands := randomComponentsGraph(t, 3, 40, 50, 905)
	o, err = BuildCustomizable(islands)
	add("islands", islands, o, err)

	var buf bytes.Buffer
	if err := Write(part, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	add("loaded", grid, loaded, err)
	if err := loaded.Matches(grid); err != nil {
		t.Fatal(err)
	}
	g2, err := grid.WithUpdatedWeights(randomWeightChanges(grid, rand.New(rand.NewSource(906)), 6))
	if err != nil {
		t.Fatal(err)
	}
	inc, _, err := loaded.RecustomizeIncremental(g2)
	add("recustomized", g2, inc, err)
	return shapes
}

// isAncestor reports whether a is a proper ancestor of v in o's tree.
func isAncestor(o *Overlay, a, v int32) bool {
	for u := o.etree[v]; u >= 0; u = o.etree[u] {
		if u == a {
			return true
		}
	}
	return false
}

// TestEliminationTreeInvariant: on every customizable shape each parent
// outranks its child, so a walk up the tree is strictly rank-increasing, and
// the higher endpoint of every upward arc is an ancestor of the lower one, so
// a walk from a node reaches everything its upward search can label. Islands
// make a forest. A loaded overlay derives the built one's tree, and a
// re-customized generation shares its source's slice.
func TestEliminationTreeInvariant(t *testing.T) {
	shapes := treeWalkShapes(t)
	byName := map[string]*Overlay{}
	for _, sh := range shapes {
		o := sh.o
		byName[sh.name] = o
		if len(o.etree) != o.n {
			t.Fatalf("%s: tree has %d entries for %d nodes", sh.name, len(o.etree), o.n)
		}
		roots := 0
		for v, p := range o.etree {
			if p < 0 {
				roots++
			} else if o.rank[p] <= o.rank[v] {
				t.Fatalf("%s: parent %d of node %d has rank %d, not above %d", sh.name, p, v, o.rank[p], o.rank[v])
			}
		}
		for v := int32(0); v < int32(o.n); v++ {
			out, _ := o.upOut(v)
			in, _ := o.upIn(v)
			for _, h := range append(slices.Clone(out), in...) {
				if !isAncestor(o, int32(h), v) {
					t.Fatalf("%s: upward arc between %d and %d, but %d is not an ancestor of %d", sh.name, v, h, h, v)
				}
			}
		}
		if sh.name == "islands" && roots < 3 {
			t.Fatalf("islands: %d roots, want a forest of at least 3 trees", roots)
		}
	}
	if !slices.Equal(byName["loaded"].etree, byName["partitioned"].etree) {
		t.Fatal("Read derived a different elimination tree than the build")
	}
	if &byName["recustomized"].etree[0] != &byName["loaded"].etree[0] {
		t.Fatal("RecustomizeIncremental copied the elimination tree instead of sharing it")
	}
}

// upwardReachable returns the nodes an upward search from s can label over
// one CSR view of o, by breadth-first search on the upward DAG.
func upwardReachable(o *Overlay, off []int32, heads []roadnet.NodeID, s roadnet.NodeID) map[roadnet.NodeID]bool {
	seen := map[roadnet.NodeID]bool{s: true}
	queue := []roadnet.NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		lo, hi := o.seg(off, int32(u))
		for _, h := range heads[lo:hi] {
			if !seen[h] {
				seen[h] = true
				queue = append(queue, h)
			}
		}
	}
	return seen
}

// TestTreeWalkSettlesUpwardReachableSet: on every customizable shape the
// sweeps of a table — distance-only and path-recording — settle exactly the
// upward-reachable sets: SettledNodes, BucketEntries and BucketEntriesScanned
// equal the counts a BFS on the upward DAG predicts, and no heap work is
// reported. A point query settles exactly its two sets.
func TestTreeWalkSettlesUpwardReachableSet(t *testing.T) {
	for _, sh := range treeWalkShapes(t) {
		o := sh.o
		rng := rand.New(rand.NewSource(907))
		sources := randomEndpointSet(rng, o.n, 6)
		targets := randomEndpointSet(rng, o.n, 5)
		settled, deposited, scanned := 0, 0, 0
		bwd := make([]map[roadnet.NodeID]bool, len(targets))
		for j, tg := range targets {
			bwd[j] = upwardReachable(o, o.bwdOff, o.bwdTo, tg)
			settled += len(bwd[j])
			deposited += len(bwd[j])
		}
		for _, s := range sources {
			fwd := upwardReachable(o, o.fwdOff, o.fwdTo, s)
			settled += len(fwd)
			for u := range fwd {
				for j := range targets {
					if bwd[j][u] {
						scanned++
					}
				}
			}
		}
		for _, paths := range []bool{false, true} {
			m := NewMTM(o, nil)
			var stats search.Stats
			if paths {
				tbl, err := m.Table(sources, targets)
				if err != nil {
					t.Fatal(err)
				}
				stats = tbl.Stats()
			} else {
				var err error
				if _, stats, err = m.Distances(sources, targets); err != nil {
					t.Fatal(err)
				}
			}
			ms := m.Stats()
			if stats.SettledNodes != settled || ms.BucketEntries != int64(deposited) || ms.BucketEntriesScanned != int64(scanned) {
				t.Fatalf("%s (paths=%v): settled %d, deposited %d, scanned %d; upward-reachable sets give %d, %d, %d",
					sh.name, paths, stats.SettledNodes, ms.BucketEntries, ms.BucketEntriesScanned, settled, deposited, scanned)
			}
			if stats.QueueOps != 0 || stats.MaxFrontier != 0 {
				t.Fatalf("%s: tree walks reported heap work %+v", sh.name, stats)
			}
		}
		s, d := sources[0], targets[0]
		if s == d {
			continue
		}
		_, stats, err := pointDistance(NewMTM(o, nil), s, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(upwardReachable(o, o.fwdOff, o.fwdTo, s)) + len(upwardReachable(o, o.bwdOff, o.bwdTo, d)); stats.SettledNodes != want {
			t.Fatalf("%s: point query %d→%d settled %d, upward-reachable sets hold %d", sh.name, s, d, stats.SettledNodes, want)
		}
	}
}

// TestTreeWalkMatchesReference: on every customizable shape, tree-walk
// tables (distances and recorded paths) and point queries equal reference
// Dijkstra.
func TestTreeWalkMatchesReference(t *testing.T) {
	for _, sh := range treeWalkShapes(t) {
		rng := rand.New(rand.NewSource(908))
		m := NewMTM(sh.o, nil)
		for round := 0; round < 3; round++ {
			checkTableAgainstReference(t, sh.g, m,
				randomEndpointSet(rng, sh.o.n, 1+rng.Intn(6)),
				randomEndpointSet(rng, sh.o.n, 1+rng.Intn(6)))
		}
		checkAgainstReference(t, storage.NewMemoryGraph(sh.g), sh.o, 60, 909)
	}
}

// checkCSRLayout asserts the layout every reader of the upward CSR views
// relies on: in each view the segments tile [0, m) in ascending rank, each is
// head-sorted and upward, every slot names an arena arc with the slot's
// endpoints and cost, and the two views hold every arena arc exactly once.
// It then walks a few starts and checks that each labelled node's via slot
// maps to an arc ending at that node in the walk's direction.
func checkCSRLayout(t *testing.T, name string, o *Overlay) {
	t.Helper()
	seen := make([]bool, len(o.arcs))
	for _, view := range []struct {
		fwd   bool
		off   []int32
		heads []roadnet.NodeID
		costs []float64
		arcs  []int32
	}{
		{true, o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc},
		{false, o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc},
	} {
		if len(view.off) != o.n+1 || view.off[0] != 0 || int(view.off[o.n]) != len(view.heads) {
			t.Fatalf("%s (fwd=%v): %d offsets over %d slots do not tile the view", name, view.fwd, len(view.off), len(view.heads))
		}
		for r := 0; r < o.n; r++ {
			if view.off[r] > view.off[r+1] {
				t.Fatalf("%s (fwd=%v): offsets fall at rank %d", name, view.fwd, r)
			}
		}
		for v := int32(0); v < int32(o.n); v++ {
			lo, hi := o.seg(view.off, v)
			if !slices.IsSorted(view.heads[lo:hi]) {
				t.Fatalf("%s (fwd=%v): segment of node %d is not head-sorted", name, view.fwd, v)
			}
			for j := lo; j < hi; j++ {
				ai, h := view.arcs[j], view.heads[j]
				a := o.arcs[ai]
				tail, head := a.from, a.to
				if !view.fwd {
					tail, head = a.to, a.from
				}
				if tail != v || head != int32(h) || o.rank[h] <= o.rank[v] {
					t.Fatalf("%s (fwd=%v): slot %d of node %d (head %d) holds arena arc %d %d→%d", name, view.fwd, j, v, h, ai, a.from, a.to)
				}
				if view.costs[j] != a.cost {
					t.Fatalf("%s (fwd=%v): slot %d costs %v, arena arc %d costs %v", name, view.fwd, j, view.costs[j], ai, a.cost)
				}
				if seen[ai] {
					t.Fatalf("%s: arena arc %d sits in two slots", name, ai)
				}
				seen[ai] = true
			}
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("%s: arena arc %d sits in no slot", name, i)
	}

	var l treeLabels
	l.grow(o.n)
	rng := rand.New(rand.NewSource(911))
	for k := 0; k < 20; k++ {
		s := roadnet.NodeID(rng.Intn(o.n))
		for _, fwd := range []bool{true, false} {
			off, heads, costs, slotArc := o.fwdOff, o.fwdTo, o.fwdCost, o.fwdArc
			if !fwd {
				off, heads, costs, slotArc = o.bwdOff, o.bwdTo, o.bwdCost, o.bwdArc
			}
			var stats search.Stats
			o.walkUp(&l, s, off, heads, costs, &stats)
			for h := o.etree[s]; h >= 0; h = o.etree[h] {
				if math.IsInf(l.dist[h], 1) {
					continue
				}
				a := o.arcs[slotArc[l.via[h]]]
				end := a.to
				if !fwd {
					end = a.from
				}
				if end != h {
					t.Fatalf("%s (fwd=%v): walk from %d labels %d through slot %d, arc %d→%d", name, fwd, s, h, l.via[h], a.from, a.to)
				}
			}
			o.clearChain(&l, s)
		}
	}
}

// tigerLikeShapes are the two overlay shapes of the end-to-end benchmark's
// map: 16 cells, as served, and flat.
var tigerLikeShapes = []struct {
	name  string
	cells int
}{{"cells-16", 16}, {"flat", 0}}

// TestCSRSegmentsRankOrdered checks the rank-ordered CSR layout on flat and
// partitioned TigerLike overlays as built, after a Write/Read round trip,
// after Recustomize and after RecustomizeIncremental.
func TestCSRSegmentsRankOrdered(t *testing.T) {
	for _, sh := range tigerLikeShapes {
		g, _, o := tigerLikeOverlay(t, 1500, sh.cells, 42)
		checkCSRLayout(t, sh.name+"/built", o)

		var buf bytes.Buffer
		if err := Write(o, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRLayout(t, sh.name+"/loaded", loaded)

		g2, err := g.WithUpdatedWeights(randomWeightChanges(g, rand.New(rand.NewSource(912)), 30))
		if err != nil {
			t.Fatal(err)
		}
		full, err := loaded.Recustomize(g2)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRLayout(t, sh.name+"/recustomized", full)
		inc, _, err := o.RecustomizeIncremental(g2)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRLayout(t, sh.name+"/incremental", inc)
	}
}

// BenchmarkTreeWalk measures the upward walk kernel on the end-to-end
// benchmark's overlay shape — a 10k-node TigerLike map, seed 42, in 16 cells
// and flat: each op walks one of 4 000 fixed starts forward and backward and
// returns the labels to rest. ns/walk and relaxed/walk are per single walk.
func BenchmarkTreeWalk(b *testing.B) {
	for _, sh := range tigerLikeShapes {
		b.Run(sh.name, func(b *testing.B) {
			_, _, o := tigerLikeOverlay(b, 10000, sh.cells, 42)
			rng := rand.New(rand.NewSource(913))
			starts := make([]roadnet.NodeID, 4000)
			for i := range starts {
				starts[i] = roadnet.NodeID(rng.Intn(o.n))
			}
			var l treeLabels
			l.grow(o.n)
			var stats search.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := starts[i%len(starts)]
				o.walkUp(&l, s, o.fwdOff, o.fwdTo, o.fwdCost, &stats)
				o.clearChain(&l, s)
				o.walkUp(&l, s, o.bwdOff, o.bwdTo, o.bwdCost, &stats)
				o.clearChain(&l, s)
			}
			walks := float64(2 * b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/walks, "ns/walk")
			b.ReportMetric(float64(stats.RelaxedArcs)/walks, "relaxed/walk")
		})
	}
}
