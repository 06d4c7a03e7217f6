package search

import (
	"math"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// lineGraph builds 0-1-2-3-4 with unit costs plus a 0-4 shortcut of cost 10.
func lineGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(5, 10)
	for i := 0; i < 5; i++ {
		g.AddNode(float64(i), 0)
	}
	for i := 0; i < 4; i++ {
		g.MustAddBidirectionalEdge(roadnet.NodeID(i), roadnet.NodeID(i+1), 1)
	}
	g.MustAddBidirectionalEdge(0, 4, 10)
	g.Freeze()
	return g
}

// mediumGraph is a 700-node grid network shared by the heavier tests.
func mediumGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 700
	cfg.Seed = 21
	return gen.MustGenerate(cfg)
}

// bellmanFord is the reference shortest-distance implementation tests compare
// against: simple, obviously correct, O(VE).
func bellmanFord(g *roadnet.Graph, source roadnet.NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range g.Arcs(roadnet.NodeID(u)) {
				if nd := dist[u] + a.Cost; nd < dist[a.To] {
					dist[a.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraSimple(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	p, stats, err := Dijkstra(acc, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 4 {
		t.Errorf("cost = %v, want 4 (via the chain, not the cost-10 shortcut)", p.Cost)
	}
	if p.Len() != 4 {
		t.Errorf("edges = %d, want 4", p.Len())
	}
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if stats.SettledNodes == 0 || stats.RelaxedArcs == 0 {
		t.Error("stats not collected")
	}
}

func TestDijkstraSourceEqualsDest(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	p, _, err := Dijkstra(acc, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 0 || len(p.Nodes) != 1 || p.Nodes[0] != 2 {
		t.Errorf("self path = %+v, want single node, zero cost", p)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := roadnet.NewGraph(3, 2)
	g.AddNode(0, 0)
	g.AddNode(1, 0)
	g.AddNode(5, 5)
	g.MustAddBidirectionalEdge(0, 1, 1)
	g.Freeze()
	acc := storage.NewMemoryGraph(g)
	p, _, err := Dijkstra(acc, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("expected empty path for unreachable destination, got %+v", p)
	}
	d, err := DijkstraDistance(acc, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Errorf("distance = %v, want +Inf", d)
	}
}

func TestDijkstraInvalidEndpoints(t *testing.T) {
	acc := storage.NewMemoryGraph(lineGraph(t))
	if _, _, err := Dijkstra(acc, -1, 2); err == nil {
		t.Error("negative source accepted")
	}
	if _, _, err := Dijkstra(acc, 0, 99); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	sources := []roadnet.NodeID{0, roadnet.NodeID(g.NumNodes() / 2), roadnet.NodeID(g.NumNodes() - 1)}
	for _, s := range sources {
		ref := bellmanFord(g, s)
		for v := 0; v < g.NumNodes(); v += 13 {
			dist, err := DijkstraDistance(acc, s, roadnet.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ref[v]-dist) > 1e-6 && !(math.IsInf(ref[v], 1) && math.IsInf(dist, 1)) {
				t.Fatalf("source %d dest %d: Dijkstra %v, Bellman-Ford %v", s, v, dist, ref[v])
			}
		}
	}
}

func TestDijkstraPathCostsConsistent(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	pairs := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 25, Seed: 3})
	for _, pr := range pairs {
		p, _, err := Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if p.Empty() {
			continue
		}
		if err := p.Validate(g); err != nil {
			t.Errorf("path %v invalid: %v", p, err)
		}
		if p.Source() != pr.Source || p.Dest() != pr.Dest {
			t.Errorf("path endpoints %d->%d, want %d->%d", p.Source(), p.Dest(), pr.Source, pr.Dest)
		}
	}
}

func TestPathValidateDetectsCorruption(t *testing.T) {
	g := lineGraph(t)
	good := Path{Nodes: []roadnet.NodeID{0, 1, 2}, Cost: 2}
	if err := good.Validate(g); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	disconnected := Path{Nodes: []roadnet.NodeID{0, 2}, Cost: 2}
	if err := disconnected.Validate(g); err == nil {
		t.Error("disconnected path accepted")
	}
	wrongCost := Path{Nodes: []roadnet.NodeID{0, 1, 2}, Cost: 5}
	if err := wrongCost.Validate(g); err == nil {
		t.Error("path with wrong cost accepted")
	}
	empty := Path{}
	if err := empty.Validate(g); err != nil {
		t.Errorf("empty path should validate: %v", err)
	}
	if empty.Source() != roadnet.InvalidNode || empty.Dest() != roadnet.InvalidNode {
		t.Error("empty path endpoints should be InvalidNode")
	}
	if empty.String() == "" || good.String() == "" {
		t.Error("String() should not be empty")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SettledNodes: 1, RelaxedArcs: 2, QueueOps: 3, MaxFrontier: 4}
	b := Stats{SettledNodes: 10, RelaxedArcs: 20, QueueOps: 30, MaxFrontier: 2}
	sum := a.Add(b)
	if sum.SettledNodes != 11 || sum.RelaxedArcs != 22 || sum.QueueOps != 33 || sum.MaxFrontier != 4 {
		t.Errorf("Add = %+v", sum)
	}
}
