package roadnet

import (
	"math"
	"testing"
	"testing/quick"
)

// scatterGraph builds a frozen graph with nodes at pseudo-random positions in
// [0,100)² produced from a simple LCG so the test is deterministic.
func scatterGraph(n int) *Graph {
	g := NewGraph(n, 0)
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53) * 100
	}
	for i := 0; i < n; i++ {
		g.AddNode(next(), next())
	}
	g.Freeze()
	return g
}

func TestNearestNodeMatchesLinearScan(t *testing.T) {
	g := scatterGraph(500)
	probes := [][2]float64{{0, 0}, {50, 50}, {99, 1}, {-10, 110}, {33.3, 66.6}}
	for _, p := range probes {
		got := g.NearestNode(p[0], p[1])
		want := g.linearNearest(p[0], p[1])
		gd := math.Hypot(g.Node(got).X-p[0], g.Node(got).Y-p[1])
		wd := math.Hypot(g.Node(want).X-p[0], g.Node(want).Y-p[1])
		if math.Abs(gd-wd) > 1e-9 {
			t.Errorf("NearestNode(%v) distance %v, linear scan distance %v", p, gd, wd)
		}
	}
}

// Property: grid-based nearest node always matches the brute-force answer (in
// distance) for arbitrary probe points.
func TestNearestNodeProperty(t *testing.T) {
	g := scatterGraph(200)
	f := func(xRaw, yRaw uint16) bool {
		x := float64(xRaw) / 655.35 // 0..100
		y := float64(yRaw) / 655.35
		got := g.NearestNode(x, y)
		want := g.linearNearest(x, y)
		gd := math.Hypot(g.Node(got).X-x, g.Node(got).Y-y)
		wd := math.Hypot(g.Node(want).X-x, g.Node(want).Y-y)
		return math.Abs(gd-wd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNearestNodeEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	g.Freeze()
	if got := g.NearestNode(1, 2); got != InvalidNode {
		t.Errorf("NearestNode on empty graph = %d, want InvalidNode", got)
	}
}

func TestNearestNodeUnfrozenGraphFallsBack(t *testing.T) {
	g := NewGraph(2, 0)
	g.AddNode(0, 0)
	b := g.AddNode(10, 10)
	if got := g.NearestNode(9, 9); got != b {
		t.Errorf("NearestNode on mutable graph = %d, want %d", got, b)
	}
}

func TestNodesWithin(t *testing.T) {
	g := NewGraph(0, 0)
	ids := []NodeID{
		g.AddNode(0, 0),
		g.AddNode(1, 0),
		g.AddNode(3, 0),
		g.AddNode(10, 0),
	}
	g.Freeze()
	got := g.NodesWithin(0, 0, 3.5)
	want := []NodeID{ids[0], ids[1], ids[2]}
	if len(got) != len(want) {
		t.Fatalf("NodesWithin = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NodesWithin[%d] = %d, want %d (results must be sorted by distance)", i, got[i], want[i])
		}
	}
}

func TestNodesWithinMatchesBruteForce(t *testing.T) {
	g := scatterGraph(300)
	for _, radius := range []float64{5, 20, 60} {
		got := g.NodesWithin(50, 50, radius)
		count := 0
		for _, n := range g.Nodes() {
			if math.Hypot(n.X-50, n.Y-50) <= radius {
				count++
			}
		}
		if len(got) != count {
			t.Errorf("NodesWithin(radius=%v) returned %d nodes, brute force found %d", radius, len(got), count)
		}
		// Results must be sorted by distance.
		for i := 1; i < len(got); i++ {
			d0 := math.Hypot(g.Node(got[i-1]).X-50, g.Node(got[i-1]).Y-50)
			d1 := math.Hypot(g.Node(got[i]).X-50, g.Node(got[i]).Y-50)
			if d0 > d1+1e-9 {
				t.Errorf("NodesWithin results not sorted at index %d", i)
				break
			}
		}
	}
}

// NodesInBand reports the band in grid-walk order, so it is checked as a set
// against brute force: every node in [inner, outer] exactly once, nothing
// else, appended after whatever dst already held.
func TestNodesInBand(t *testing.T) {
	frozen := scatterGraph(300)
	mutable := NewGraph(0, 0)
	for _, n := range frozen.Nodes() {
		mutable.AddNode(n.X, n.Y)
	}
	for _, g := range []*Graph{frozen, mutable} {
		for _, band := range [][2]float64{{10, 30}, {0, 15}, {0, 200}, {40, 41}, {0, 0}} {
			inner, outer := band[0], band[1]
			prefix := []NodeID{InvalidNode}
			got := g.NodesInBand(prefix, 50, 50, inner, outer)
			if got[0] != InvalidNode {
				t.Fatalf("NodesInBand overwrote dst[0]")
			}
			seen := make(map[NodeID]bool)
			for _, id := range got[1:] {
				if seen[id] {
					t.Errorf("frozen=%v band %v: node %d reported twice", g.Frozen(), band, id)
				}
				seen[id] = true
			}
			for _, n := range g.Nodes() {
				d := math.Hypot(n.X-50, n.Y-50)
				if want := d >= inner && d <= outer; seen[n.ID] != want {
					t.Errorf("frozen=%v band %v: node %d at distance %v reported=%v, want %v", g.Frozen(), band, n.ID, d, seen[n.ID], want)
				}
			}
		}
	}
	// A band off the map entirely is empty, not a panic.
	if got := frozen.NodesInBand(nil, -500, 50, 0, 100); len(got) != 0 {
		t.Errorf("NodesInBand off the map = %v, want none", got)
	}
}

func TestNodesWithinDegenerateGeometry(t *testing.T) {
	// All nodes on one vertical line: the grid has zero width in x.
	g := NewGraph(5, 0)
	for i := 0; i < 5; i++ {
		g.AddNode(7, float64(i))
	}
	g.Freeze()
	if got := g.NodesWithin(7, 0, 2.5); len(got) != 3 {
		t.Errorf("NodesWithin on collinear nodes = %d results, want 3", len(got))
	}
	if got := g.NearestNode(7, 4.4); g.Node(got).Y != 4 {
		t.Errorf("NearestNode on collinear nodes picked y=%v, want 4", g.Node(got).Y)
	}
}
