package ch

import (
	"bytes"
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
// one CSR view, by breadth-first search on the upward DAG.
func upwardReachable(off []int32, heads []roadnet.NodeID, s roadnet.NodeID) map[roadnet.NodeID]bool {
	seen := map[roadnet.NodeID]bool{s: true}
	queue := []roadnet.NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range heads[off[u]:off[u+1]] {
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
			bwd[j] = upwardReachable(o.bwdOff, o.bwdTo, tg)
			settled += len(bwd[j])
			deposited += len(bwd[j])
		}
		for _, s := range sources {
			fwd := upwardReachable(o.fwdOff, o.fwdTo, s)
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
		_, stats, err := NewEngine(o, nil).Distance(s, d)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(upwardReachable(o.fwdOff, o.fwdTo, s)) + len(upwardReachable(o.bwdOff, o.bwdTo, d)); stats.SettledNodes != want {
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
