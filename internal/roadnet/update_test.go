package roadnet

import (
	"math"
	"testing"
)

// updateFixture builds a small frozen graph with a parallel arc pair.
func updateFixture(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(4, 8)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddBidirectionalEdge(0, 1, 2)
	g.MustAddBidirectionalEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(2, 3, 7) // parallel, more expensive
	g.Freeze()
	return g
}

func TestWithUpdatedWeightsCopyOnWrite(t *testing.T) {
	g := updateFixture(t)
	g2, err := g.WithUpdatedWeights([]ArcWeightChange{{From: 0, To: 1, NewCost: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := g.ArcCost(0, 1); c != 2 {
		t.Fatalf("receiver mutated: arc 0→1 cost %v", c)
	}
	if c, _ := g2.ArcCost(0, 1); c != 9 {
		t.Fatalf("derived graph: arc 0→1 cost %v, want 9", c)
	}
	if c, _ := g2.ArcCost(1, 0); c != 2 {
		t.Fatalf("reverse direction changed: arc 1→0 cost %v, want 2", c)
	}
	if !g2.Frozen() || g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
		t.Fatal("derived graph lost shape or frozenness")
	}
	// Reverse CSR of the derived graph reflects the new cost.
	found := false
	for _, a := range g2.ReverseArcs(1) {
		if a.To == 0 && a.Cost == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("derived graph's reverse adjacency does not carry the new cost")
	}
}

func TestWithUpdatedWeightsParallelArcs(t *testing.T) {
	g := updateFixture(t)
	g2, err := g.WithUpdatedWeights([]ArcWeightChange{{From: 2, To: 3, NewCost: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Every parallel 2→3 arc takes the new cost.
	for _, a := range g2.Arcs(2) {
		if a.To == 3 && a.Cost != 4 {
			t.Fatalf("parallel arc kept cost %v", a.Cost)
		}
	}
}

func TestWithUpdatedWeightsErrors(t *testing.T) {
	g := updateFixture(t)
	cases := []ArcWeightChange{
		{From: 0, To: 3, NewCost: 1},          // arc does not exist
		{From: 9, To: 1, NewCost: 1},          // unknown node
		{From: 0, To: 1, NewCost: -1},         // negative
		{From: 0, To: 1, NewCost: math.NaN()}, // NaN
		{From: 0, To: 1, NewCost: math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := g.WithUpdatedWeights([]ArcWeightChange{c}); err == nil {
			t.Fatalf("change %+v accepted", c)
		}
	}
	unfrozen := NewGraph(2, 1)
	unfrozen.AddNode(0, 0)
	unfrozen.AddNode(1, 1)
	unfrozen.MustAddEdge(0, 1, 1)
	if _, err := unfrozen.WithUpdatedWeights(nil); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestChecksumsSplitTopologyFromContent(t *testing.T) {
	g := updateFixture(t)
	g2, err := g.WithUpdatedWeights([]ArcWeightChange{{From: 1, To: 2, NewCost: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if g.TopologyChecksum() != g2.TopologyChecksum() {
		t.Fatal("weight update moved the topology checksum")
	}
	// Node 2 leaves for 1 and twice for 3; the derived graph keeps the count.
	if g.MaxOutDegree() != 3 || g2.MaxOutDegree() != 3 {
		t.Fatalf("max out-degree %d, after a weight update %d; want 3", g.MaxOutDegree(), g2.MaxOutDegree())
	}
	if g.ContentChecksum() == g2.ContentChecksum() {
		t.Fatal("weight update did not move the content checksum")
	}
	// Round-trip back to the original weights restores the original checksum
	// (XOR-fold property).
	g3, err := g2.WithUpdatedWeights([]ArcWeightChange{{From: 1, To: 2, NewCost: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g3.ContentChecksum() != g.ContentChecksum() {
		t.Fatal("restoring the weight did not restore the content checksum")
	}
	// Different topology, same sizes → different topology checksum.
	h := NewGraph(4, 8)
	for i := 0; i < 4; i++ {
		h.AddNode(float64(i), 0)
	}
	h.MustAddBidirectionalEdge(0, 2, 2)
	h.MustAddBidirectionalEdge(1, 2, 3)
	h.MustAddEdge(2, 3, 5)
	h.MustAddEdge(2, 3, 7)
	h.Freeze()
	if h.TopologyChecksum() == g.TopologyChecksum() {
		t.Fatal("distinct topologies share a topology checksum")
	}
}
