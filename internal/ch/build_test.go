package ch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// benchMapNodes and benchMapSeed describe the end-to-end benchmark's road
// map (bench/stack.go): a TigerLike map of 10 000 requested nodes from the
// default generator seed, which the fleet contracts in 16 cells.
const (
	benchMapNodes = 10000
	benchMapSeed  = 42
	benchMapCells = 16
)

// TestBuildOutputPinned pins the bytes the builder produces on the bench
// map, flat and in 16 cells: ranks, levels, arena order and weights all feed
// the SHA-256 of Write's output. A faster contraction pass must reproduce
// them exactly, and the block codec must lay them out byte for byte as the
// field-at-a-time codec did. The digests were taken on amd64 with the
// default GOAMD64=v1; a build that fuses floating-point multiply-adds
// (arm64, GOAMD64=v3) may generate other costs and so other bytes.
func TestBuildOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 10k-node overlays")
	}
	cases := []struct {
		name  string
		cells int
		want  string
	}{
		{"flat", 0, "58a40379823594590d7fad4722cd1398dee559770d4d235f63f44c4c92785bff"},
		{"cells-16", benchMapCells, "5b3f381ea71d539eeb56decfbcb06a6aa9efe482d0f232b2985292f8ca8e3c28"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, o := tigerLikeOverlay(t, benchMapNodes, tc.cells, benchMapSeed)
			sum := sha256.Sum256(writeBytes(t, o))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("OCH1 bytes hash to %s, want %s", got, tc.want)
			}
		})
	}
}

// messyIntCostGraph builds a small random graph with everything a real map
// file may hold and a road generator does not: isolated nodes, one-way arcs,
// parallel arcs between one pair at different costs, and self-loops. Costs
// are small integers so distances compare exactly.
func messyIntCostGraph(t testing.TB, rng *rand.Rand) *roadnet.Graph {
	t.Helper()
	n := 2 + rng.Intn(40)
	g := roadnet.NewGraph(n, 4*n)
	for i := 0; i < n; i++ {
		g.AddNode(rng.Float64()*1000, rng.Float64()*1000)
	}
	// Nodes from connected on carry no arc.
	connected := n - rng.Intn(n/2+1)
	node := func() roadnet.NodeID { return roadnet.NodeID(rng.Intn(connected)) }
	cost := func() float64 { return float64(1 + rng.Intn(20)) }
	for i, arcs := 0, rng.Intn(3*connected+1); i < arcs; i++ {
		a, b := node(), node()
		switch r := rng.Intn(10); {
		case r < 4:
			g.MustAddBidirectionalEdge(a, b, cost())
		case r < 8:
			g.MustAddEdge(a, b, cost()) // one-way; a self-loop when a == b
		case r < 9:
			g.MustAddEdge(a, b, cost()) // a parallel pair
			g.MustAddEdge(a, b, cost())
		default:
			g.MustAddEdge(a, a, cost())
		}
	}
	g.Freeze()
	return g
}

// checkContractionStructure checks what the builder's shortcut-existence
// test guards:
//   - no shortcut repeats the (from, to) of another arena arc (parallel
//     original arcs of the input graph are the only repeated pairs);
//   - every node's upward neighbourhood is closed: for each in-arc x→v and
//     out-arc v→w with x and w ranked above v, x ≠ w, the arena holds x→w —
//     the pairs v's contraction had to join;
//   - every shortcut's children form a lower triangle from→via→to through a
//     node ranked below both ends.
func checkContractionStructure(t *testing.T, o *Overlay) {
	t.Helper()
	type pair struct{ from, to int32 }
	arcOf := make(map[pair]int, len(o.arcs))
	for i, a := range o.arcs {
		p := pair{a.from, a.to}
		if j, dup := arcOf[p]; dup && i >= o.nOriginal {
			t.Fatalf("shortcut %d repeats arc %d (%d→%d)", i, j, a.from, a.to)
		}
		arcOf[p] = i
	}
	upIn := make([][]int32, o.n)
	upOut := make([][]int32, o.n)
	for _, a := range o.arcs {
		if o.rank[a.from] > o.rank[a.to] {
			upIn[a.to] = append(upIn[a.to], a.from)
		} else {
			upOut[a.from] = append(upOut[a.from], a.to)
		}
	}
	for v := 0; v < o.n; v++ {
		for _, x := range upIn[v] {
			for _, w := range upOut[v] {
				if _, ok := arcOf[pair{x, w}]; x != w && !ok {
					t.Fatalf("node %d joins %d→%d→%d, but the arena has no arc %d→%d", v, x, v, w, x, w)
				}
			}
		}
	}
	for i := o.nOriginal; i < len(o.arcs); i++ {
		a := &o.arcs[i]
		ca, cb := &o.arcs[a.childA], &o.arcs[a.childB]
		if ca.from != a.from || ca.to != cb.from || cb.to != a.to {
			t.Fatalf("shortcut %d (%d→%d) has non-chaining children %d→%d, %d→%d", i, a.from, a.to, ca.from, ca.to, cb.from, cb.to)
		}
		if via := ca.to; o.rank[via] >= o.rank[a.from] || o.rank[via] >= o.rank[a.to] {
			t.Fatalf("shortcut %d (%d→%d) bypasses node %d, which does not rank below both ends", i, a.from, a.to, via)
		}
	}
}

// TestContractionStructureProperty builds random messy graphs flat and in
// 2–4 cells, and checks each overlay's structure and its distances against
// reference Dijkstra.
func TestContractionStructureProperty(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := messyIntCostGraph(t, rng)
		p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 2 + rng.Intn(3), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []*roadnet.Partition{nil, p} {
			t.Run(fmt.Sprintf("seed-%d/cells-%v", seed, part != nil), func(t *testing.T) {
				o, err := BuildCustomizablePartitioned(g, part)
				if err != nil {
					t.Fatal(err)
				}
				checkContractionStructure(t, o)
				checkAgainstReference(t, storage.NewMemoryGraph(g), o, 30, seed)
			})
		}
	}
}

// BenchmarkBuildCustomizable times the contraction pass plus customization
// on the bench map, in the 16-cell order the fleet serves and flat.
func BenchmarkBuildCustomizable(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cells int
	}{{"cells-16", benchMapCells}, {"flat", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			g, p := tigerLikeMap(b, benchMapNodes, bc.cells, benchMapSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCustomizablePartitioned(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
