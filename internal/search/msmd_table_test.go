package search

import (
	"math"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// TestEvaluateFillsDists asserts every ordinary strategy's Evaluate result
// carries the derived distance matrix, +Inf for unreachable cells.
func TestEvaluateFillsDists(t *testing.T) {
	// Two disconnected islands: 0-1 and 2-3.
	g := roadnet.NewGraph(4, 2)
	for i := 0; i < 4; i++ {
		g.AddNode(float64(i), 0)
	}
	g.MustAddBidirectionalEdge(0, 1, 5)
	g.MustAddBidirectionalEdge(2, 3, 7)
	g.Freeze()
	acc := storage.NewMemoryGraph(g)
	for _, strat := range []Strategy{StrategySSMD, StrategyPairwise} {
		res, err := NewProcessor(acc, WithStrategy(strat)).Evaluate([]roadnet.NodeID{0}, []roadnet.NodeID{1, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Dist) != 3 {
			t.Fatalf("%s: Evaluate filled %d distances, want 3", strat, len(res.Dist))
		}
		if res.Dist[0] != 5 {
			t.Fatalf("%s: d(0,1) = %v, want 5", strat, res.Dist[0])
		}
		if !math.IsInf(res.Dist[1], 1) {
			t.Fatalf("%s: d(0,2) = %v, want +Inf", strat, res.Dist[1])
		}
		if res.Dist[2] != 0 {
			t.Fatalf("%s: d(0,0) = %v, want 0", strat, res.Dist[2])
		}
	}
}
