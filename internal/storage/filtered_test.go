package storage

import (
	"testing"

	"opaque/internal/roadnet"
)

func filteredTestGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	// 0 -1- 1 -1- 2, plus a long "highway" 0 -10- 2.
	g := roadnet.NewGraph(3, 6)
	for i := 0; i < 3; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddBidirectionalEdge(0, 1, 1)
	g.MustAddBidirectionalEdge(1, 2, 1)
	g.MustAddBidirectionalEdge(0, 2, 10)
	g.Freeze()
	return g
}

func TestFilteredGraphNilFilterPassesThrough(t *testing.T) {
	g := filteredTestGraph(t)
	f := NewFilteredGraph(NewMemoryGraph(g), nil)
	if len(f.Arcs(0)) != len(g.Arcs(0)) {
		t.Error("nil filter altered adjacency")
	}
	if f.NumNodes() != g.NumNodes() || f.Graph() != g {
		t.Error("accessor plumbing broken")
	}
}

func TestAvoidNodesFilter(t *testing.T) {
	g := filteredTestGraph(t)
	f := NewFilteredGraph(NewMemoryGraph(g), AvoidNodes(1))
	for _, a := range f.Arcs(0) {
		if a.To == 1 {
			t.Error("arc into avoided node survived the filter")
		}
	}
	// Node 2 remains reachable via the highway arc.
	found := false
	for _, a := range f.Arcs(0) {
		if a.To == 2 {
			found = true
		}
	}
	if !found {
		t.Error("unrelated arcs were dropped")
	}
}

func TestMaxArcCostFilter(t *testing.T) {
	g := filteredTestGraph(t)
	f := NewFilteredGraph(NewMemoryGraph(g), MaxArcCost(5))
	for _, a := range f.Arcs(0) {
		if a.Cost > 5 {
			t.Errorf("arc of cost %v survived a limit of 5", a.Cost)
		}
	}
	if len(f.Arcs(0)) != 1 {
		t.Errorf("node 0 should keep exactly one arc under the limit, got %d", len(f.Arcs(0)))
	}
}

func TestFilteredGraphChargesIO(t *testing.T) {
	g := filteredTestGraph(t)
	ps := MustBuild(g, DefaultConfig())
	pool := MustNewBufferPool(4)
	paged := NewPagedGraph(ps, pool)
	f := NewFilteredGraph(paged, MaxArcCost(5))
	before := pool.Stats().Accesses
	_ = f.Arcs(0)
	if pool.Stats().Accesses != before+1 {
		t.Error("filtered access did not charge the underlying page read")
	}
}
