package fleet_test

// Whole-query placement: which shard answers a query, and what one routed
// batch allocates.

import (
	"math/rand"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// answeredBy executes q through the router and returns the one shard whose
// server processed it.
func answeredBy(t *testing.T, cl *fleettest.Cluster, q protocol.ServerQuery) int {
	t.Helper()
	before := make([]int64, cl.NumShards())
	for i := range before {
		before[i] = cl.Shard(i).Server().Metrics().Counter("queries_processed")
	}
	if _, err := cl.Router.Execute(q); err != nil {
		t.Fatalf("query %d: %v", q.QueryID, err)
	}
	shard := -1
	for i := range before {
		if cl.Shard(i).Server().Metrics().Counter("queries_processed") > before[i] {
			if shard >= 0 {
				t.Fatalf("query %d answered by shards %d and %d", q.QueryID, shard, i)
			}
			shard = i
		}
	}
	if shard < 0 {
		t.Fatalf("query %d answered by no shard", q.QueryID)
	}
	return shard
}

// TestWholeQueryPlacement pins where the router sends a whole query in both
// fleet modes: round-robin across the shards, one shard per query, and past a
// blackholed shard to the next available one, which fleet_failovers counts.
func TestWholeQueryPlacement(t *testing.T) {
	g := testGraph(t, 300, 2101)
	query := func(id uint64) protocol.ServerQuery {
		return protocol.ServerQuery{QueryID: id, Sources: []roadnet.NodeID{3, 90}, Dests: []roadnet.NodeID{7, 150}}
	}
	// tally runs 3k queries one after another and counts the answering shard.
	const k = 4
	tally := func(t *testing.T, cl *fleettest.Cluster, firstID uint64) [3]int {
		var byShard [3]int
		for id := firstID; id < firstID+3*k; id++ {
			byShard[answeredBy(t, cl, query(id))]++
		}
		return byShard
	}
	for _, mode := range []fleet.Mode{fleet.ModePartition, fleet.ModeReplicate} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Run("round-robin", func(t *testing.T) {
				cl, err := fleettest.New(g, fleettest.Options{Shards: 3, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				if got, want := tally(t, cl, 1), [3]int{k, k, k}; got != want {
					t.Errorf("queries per shard = %v, want %v", got, want)
				}
				if n := cl.Router.Metrics().Counter("fleet_failovers"); n != 0 {
					t.Errorf("fleet_failovers = %d on a healthy fleet", n)
				}
			})

			t.Run("blackholed shard", func(t *testing.T) {
				cl, err := fleettest.New(g, fleettest.Options{
					Shards: 3,
					Mode:   mode,
					Fleet: fleet.Config{
						Retries: 1, RetryBackoff: time.Millisecond,
						FailThreshold: 1, BreakerCooldown: time.Minute,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				cl.Shard(1).Blackhole(true)
				defer cl.Shard(1).Blackhole(false)
				// Trip shard 1's breaker: the first query placed on it fails
				// its dial and is placed again.
				id := uint64(1)
				for ; cl.Router.ShardStates()[1] != fleet.ShardDown; id++ {
					if id > 3 {
						t.Fatal("shard 1's breaker did not trip within one round of placements")
					}
					answeredBy(t, cl, query(id))
				}
				before := cl.Router.Metrics().Counter("fleet_failovers")
				// Shard 1's turns in the rotation go to the next available
				// shard, 2.
				if got, want := tally(t, cl, id), [3]int{k, 0, 2 * k}; got != want {
					t.Errorf("queries per shard with shard 1 blackholed = %v, want %v", got, want)
				}
				if n := cl.Router.Metrics().Counter("fleet_failovers") - before; n != k {
					t.Errorf("fleet_failovers grew by %d over %d queries placed on blackholed shard 1, want %d", n, k, k)
				}
			})
		})
	}
}

// TestRouterBatchAllocs pins the allocations of one routed batch of wide
// queries: 8 queries of 16×16 through a 2-shard partition-mode fleet of
// hybrid shards. The in-process shards' allocations count too, so the budget
// covers the whole path — placement, framing both ways, evaluation, reply
// decoding. Splitting each query's sources across the shards (two partial
// tables per query, then a stitch) costs more than twice the budget.
func TestRouterBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	g := testGraph(t, 400, 2201)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: hybridConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(2202))
	qs := make([]protocol.ServerQuery, 8)
	for i := range qs {
		qs[i].QueryID = uint64(i + 1)
		for k := 0; k < 16; k++ {
			qs[i].Sources = append(qs[i].Sources, roadnet.NodeID(rng.Intn(g.NumNodes())))
			qs[i].Dests = append(qs[i].Dests, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
	}
	run := func() {
		_, errs := cl.Router.ExecuteBatch(qs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("query %d: %v", qs[i].QueryID, err)
			}
		}
	}
	// Warm the connections and the shards' pooled search state.
	for i := 0; i < 4; i++ {
		run()
	}
	// 154 measured (Go 1.24, linux/amd64) plus 10 %. Decoding every reply
	// read 171, and the source split read 504.
	const budget = 169
	if allocs := testing.AllocsPerRun(20, run); allocs > budget {
		t.Fatalf("one routed batch allocated %.0f times, budget %d", allocs, budget)
	}
}
