package fleet_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"opaque/internal/client"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// rewired returns a copy of g in which one arc leaves for another head: the
// first arc of node 0 now ends at the lowest node that is neither node 0 nor
// one of its neighbours. Weights are untouched; the topology is not.
func rewired(t *testing.T, g *roadnet.Graph) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewGraph(g.NumNodes(), g.NumArcs())
	for _, n := range g.Nodes() {
		b.AddWeightedNode(n.X, n.Y, n.Weight)
	}
	heads := g.Arcs(0)
	moved := roadnet.NodeID(1)
	for slices.ContainsFunc(heads, func(a roadnet.Arc) bool { return a.To == moved }) {
		moved++
	}
	for u := range g.NumNodes() {
		for k, a := range g.Arcs(roadnet.NodeID(u)) {
			if u == 0 && k == 0 {
				a.To = moved
			}
			b.MustAddEdge(roadnet.NodeID(u), a.To, a.Cost)
		}
	}
	b.Freeze()
	if b.TopologyChecksum() == g.TopologyChecksum() {
		t.Fatal("rewiring an arc left the topology checksum unchanged")
	}
	return b
}

// swapExecutor is the obfuscator's one executor, pointed at whichever fleet
// the test is asking.
type swapExecutor struct{ obfsvc.BatchExecutor }

// TestTopologyMismatchFailsTyped: an obfuscator on map A asking, through a
// router, a shard that holds map B — A with one arc's head changed — fails
// every request with protocol.ErrTopologyMismatch, whether it reaches the
// router over the multiplexed transport or through its Go API, and none
// reads as "no route". A graph-free DirectClient still gets correct paths
// out of the same shard, and the same obfuscator asking a shard on A gets
// the paths search.ReferenceDijkstra finds on A.
func TestTopologyMismatchFailsTyped(t *testing.T) {
	a := testGraph(t, 500, 46)
	b := rewired(t, a)
	wl := gen.MustGenerateWorkload(a, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 6, Seed: 46})
	requests := make([]obfuscate.Request, len(wl))
	for i, p := range wl {
		requests[i] = obfuscate.Request{User: obfuscate.UserID(rune('a' + i)), Source: p.Source, Dest: p.Dest, FS: 2, FT: 3}
	}

	fleets := map[*roadnet.Graph]*fleettest.Cluster{}
	for _, g := range []*roadnet.Graph{a, b} {
		cl, err := fleettest.New(g, fleettest.Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fleets[g] = cl
	}
	viaMux := func(cl *fleettest.Cluster) obfsvc.BatchExecutor {
		mc, err := cl.DialRouter(protocol.MuxServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		exec := obfsvc.NewMuxExecutor(mc)
		t.Cleanup(func() { exec.Close() })
		return exec
	}

	cfg := obfsvc.DefaultConfig()
	cfg.BatchWindow = 0
	minX, minY, maxX, maxY := a.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 46)
	exec := &swapExecutor{}
	svc := obfsvc.MustNew(a, exec, cfg)

	for name, onB := range map[string]obfsvc.BatchExecutor{"router": fleets[b].Router, "mux": viaMux(fleets[b])} {
		exec.BatchExecutor = onB
		results, err := svc.ProcessBatch(requests)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if !errors.Is(res.Err, protocol.ErrTopologyMismatch) || res.Found {
				t.Errorf("%s, shard on B: request %d: found %v, err %v; want protocol.ErrTopologyMismatch", name, i, res.Found, res.Err)
			}
		}
	}

	direct := client.MustNewDirect(fleets[b].Router)
	for _, r := range requests {
		got, err := direct.Query(r.Source, r.Dest)
		if err != nil {
			t.Fatalf("direct client on B: %v", err)
		}
		want, _, err := search.ReferenceDijkstra(storage.NewMemoryGraph(b), r.Source, r.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Path.Cost-want.Cost) > 1e-9 || !slices.Equal(got.Path.Nodes, want.Nodes) {
			t.Errorf("direct client on B: %d→%d took %v (cost %v), want %v (cost %v)", r.Source, r.Dest, got.Path.Nodes, got.Path.Cost, want.Nodes, want.Cost)
		}
	}

	for name, onA := range map[string]obfsvc.BatchExecutor{"router": fleets[a].Router, "mux": viaMux(fleets[a])} {
		exec.BatchExecutor = onA
		results, err := svc.ProcessBatch(requests)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			want, _, err := search.ReferenceDijkstra(storage.NewMemoryGraph(a), requests[i].Source, requests[i].Dest)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil || !res.Found || math.Abs(res.Path.Cost-want.Cost) > 1e-9 || !slices.Equal(res.Path.Nodes, want.Nodes) {
				t.Errorf("%s, shard on A: request %d: %+v, want %v (cost %v)", name, i, res, want.Nodes, want.Cost)
			}
		}
	}
}
