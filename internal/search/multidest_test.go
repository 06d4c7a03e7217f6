package search

import (
	"math"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

func TestSSMDMatchesIndividualDijkstra(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	pairs := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 10, Seed: 9})
	for _, pr := range pairs {
		dests := []roadnet.NodeID{pr.Dest, (pr.Dest + 17) % roadnet.NodeID(g.NumNodes()), (pr.Dest + 91) % roadnet.NodeID(g.NumNodes())}
		res, err := SSMD(acc, pr.Source, dests)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != len(dests) {
			t.Fatalf("got %d paths, want %d", len(res.Paths), len(dests))
		}
		for i, d := range dests {
			ref, _, err := Dijkstra(acc, pr.Source, d)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Paths[i]
			if ref.Empty() != got.Empty() {
				t.Fatalf("reachability mismatch for %d->%d", pr.Source, d)
			}
			if !ref.Empty() && math.Abs(ref.Cost-got.Cost) > 1e-6 {
				t.Fatalf("SSMD cost %v != Dijkstra cost %v for %d->%d", got.Cost, ref.Cost, pr.Source, d)
			}
			if err := got.Validate(g); err != nil {
				t.Errorf("SSMD path invalid: %v", err)
			}
		}
	}
}

func TestSSMDDuplicateAndSelfDestinations(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	res, err := SSMD(acc, 0, []roadnet.NodeID{3, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths[0].Cost != res.Paths[1].Cost {
		t.Error("duplicate destinations should receive identical paths")
	}
	if res.Paths[2].Cost != 0 || len(res.Paths[2].Nodes) != 1 {
		t.Errorf("self destination path = %+v, want zero-cost single node", res.Paths[2])
	}
	if p, ok := res.PathTo(3); !ok || p.Cost != 3 {
		t.Errorf("PathTo(3) = %+v, %v", p, ok)
	}
	if _, ok := res.PathTo(99); ok {
		t.Error("PathTo for a non-requested destination should report false")
	}
}

func TestSSMDErrors(t *testing.T) {
	acc := storage.NewMemoryGraph(lineGraph(t))
	if _, err := SSMD(acc, 0, nil); err == nil {
		t.Error("SSMD with no destinations accepted")
	}
	if _, err := SSMD(acc, 99, []roadnet.NodeID{1}); err == nil {
		t.Error("SSMD with invalid source accepted")
	}
	if _, err := SSMD(acc, 0, []roadnet.NodeID{99}); err == nil {
		t.Error("SSMD with invalid destination accepted")
	}
}

// TestSSMDSharingCheaperThanPairwise verifies the Section III-B claim the
// design rests on: one spanning tree to nearby destinations costs much less
// than one Dijkstra per destination.
func TestSSMDSharingCheaperThanPairwise(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	pairs := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 10, Seed: 11})
	var ssmdTotal, pairwiseTotal int
	for _, pr := range pairs {
		// Destinations clustered around the true one.
		tn := g.Node(pr.Dest)
		near := g.NodesWithin(tn.X, tn.Y, 10000)
		dests := []roadnet.NodeID{pr.Dest}
		for _, id := range near {
			if id != pr.Dest && len(dests) < 6 {
				dests = append(dests, id)
			}
		}
		res, err := SSMD(acc, pr.Source, dests)
		if err != nil {
			t.Fatal(err)
		}
		ssmdTotal += res.Stats.SettledNodes
		for _, d := range dests {
			_, st, err := Dijkstra(acc, pr.Source, d)
			if err != nil {
				t.Fatal(err)
			}
			pairwiseTotal += st.SettledNodes
		}
	}
	if ssmdTotal*2 >= pairwiseTotal {
		t.Errorf("SSMD settled %d nodes, pairwise %d — expected SSMD to be at least 2x cheaper for clustered destinations", ssmdTotal, pairwiseTotal)
	}
}

func TestSSMDDistances(t *testing.T) {
	g := lineGraph(t)
	acc := storage.NewMemoryGraph(g)
	d, _, err := SSMDDistances(acc, 0, []roadnet.NodeID{1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 4, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("distance[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestProcessorStrategiesAgree(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	sources := []roadnet.NodeID{5, 105, 305}
	dests := []roadnet.NodeID{77, 301, 512, 640}

	results := map[Strategy]Table{}
	for _, strat := range []Strategy{StrategySSMD, StrategyPairwise} {
		proc := NewProcessor(acc, WithStrategy(strat))
		res, err := proc.Evaluate(sources, dests)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Dist) != len(sources)*len(dests) {
			t.Fatalf("%s produced %d candidates, want %d", strat, len(res.Dist), len(sources)*len(dests))
		}
		results[strat] = res
	}
	// The A* row: one scaled-heuristic search per cell.
	astar := make([]float64, 0, len(sources)*len(dests))
	for _, s := range sources {
		for _, d := range dests {
			p, _, err := AStarScaled(acc, s, d, 0.8)
			if err != nil {
				t.Fatalf("astar: %v", err)
			}
			if p.Empty() {
				astar = append(astar, math.Inf(1))
			} else {
				astar = append(astar, p.Cost)
			}
		}
	}
	base := results[StrategySSMD]
	for name, other := range map[string][]float64{"pairwise": results[StrategyPairwise].Dist, "astar": astar} {
		for c, b := range other {
			a := base.Dist[c]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("%s reachability differs for (%d,%d)", name, sources[c/len(dests)], dests[c%len(dests)])
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
				t.Fatalf("%s cost %v != SSMD cost %v for (%d,%d)", name, b, a, sources[c/len(dests)], dests[c%len(dests)])
			}
		}
	}
	// The sharing strategy must do less work than pairwise Dijkstra.
	if results[StrategySSMD].Stats.SettledNodes >= results[StrategyPairwise].Stats.SettledNodes {
		t.Errorf("SSMD settled %d nodes, pairwise %d — sharing should be cheaper",
			results[StrategySSMD].Stats.SettledNodes, results[StrategyPairwise].Stats.SettledNodes)
	}
}

func TestProcessorConcurrentWorkersMatchSequential(t *testing.T) {
	g := mediumGraph(t)
	acc := storage.NewMemoryGraph(g)
	sources := []roadnet.NodeID{3, 33, 333, 603}
	dests := []roadnet.NodeID{10, 20, 30}
	seq, err := NewProcessor(acc).Evaluate(sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewProcessor(acc, WithWorkers(4)).Evaluate(sources, dests)
	if err != nil {
		t.Fatal(err)
	}
	for c := range seq.Dist {
		if math.Abs(seq.Dist[c]-par.Dist[c]) > 1e-9 {
			t.Fatalf("worker result differs at (%d,%d)", c/len(dests), c%len(dests))
		}
	}
	if seq.Stats.SettledNodes != par.Stats.SettledNodes {
		t.Errorf("algorithmic work differs: %d vs %d settled nodes", seq.Stats.SettledNodes, par.Stats.SettledNodes)
	}
}

func TestProcessorErrors(t *testing.T) {
	acc := storage.NewMemoryGraph(lineGraph(t))
	proc := NewProcessor(acc)
	if _, err := proc.Evaluate(nil, []roadnet.NodeID{1}); err == nil {
		t.Error("empty source set accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{0}, nil); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{99}, []roadnet.NodeID{1}); err == nil {
		t.Error("invalid source accepted")
	}
	if _, err := proc.Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{99}); err == nil {
		t.Error("invalid destination accepted")
	}
	bad := NewProcessor(acc, WithStrategy("nonsense"))
	if _, err := bad.Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{1}); err == nil {
		t.Error("unknown strategy accepted")
	}
}
