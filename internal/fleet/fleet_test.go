package fleet_test

// The fleet test battery: the equivalence property (a router over two shards
// answers exactly like one server, in either fleet mode), whole-query placement
// (each query is answered by one shard, so no reply mixes metrics), and the
// fault-injection battery (shard kill and restart mid-batch and mid-churn,
// bounded retry, reconnect replay). Everything runs in-process
// over net.Pipe via the fleettest harness, and the whole file is exercised
// under -race in CI.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

func testGraph(t testing.TB, nodes int, seed uint64) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = nodes
	cfg.Seed = seed
	return gen.MustGenerate(cfg)
}

// makeQueries generates obfuscated query shapes: source and
// destination sets of mixed sizes |S|,|T| ∈ [1,4] drawn uniformly from the
// map, the workload shape the obfuscator produces for mixed fS/fT client
// populations.
func makeQueries(g *roadnet.Graph, n int, seed int64) []protocol.ServerQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]protocol.ServerQuery, n)
	for i := range qs {
		nS, nT := 1+rng.Intn(4), 1+rng.Intn(4)
		q := protocol.ServerQuery{QueryID: uint64(i + 1)}
		for s := 0; s < nS; s++ {
			q.Sources = append(q.Sources, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
		for d := 0; d < nT; d++ {
			q.Dests = append(q.Dests, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
		qs[i] = q
	}
	return qs
}

// assertSameReply compares a fleet reply against the single-server reference
// table: costs, reachability and node sequences must agree exactly for every
// (s, t) slot.
func assertSameReply(t *testing.T, label string, got, want protocol.ServerReply) {
	t.Helper()
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: table has %d candidates, reference %d", label, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		g, w := got.Paths[i], want.Paths[i]
		if g.Source != w.Source || g.Dest != w.Dest {
			t.Fatalf("%s[%d]: slot (%d,%d), reference (%d,%d) — the reply reordered the table", label, i, g.Source, g.Dest, w.Source, w.Dest)
		}
		if g.Found != w.Found {
			t.Fatalf("%s[%d]: found=%v, reference %v", label, i, g.Found, w.Found)
		}
		if !g.Found {
			continue
		}
		if math.Abs(g.Cost-w.Cost) > 1e-9 {
			t.Fatalf("%s[%d]: cost %v, reference %v", label, i, g.Cost, w.Cost)
		}
		if len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("%s[%d]: path length %d, reference %d", label, i, len(g.Nodes), len(w.Nodes))
		}
		for j := range w.Nodes {
			if g.Nodes[j] != w.Nodes[j] {
				t.Fatalf("%s[%d]: node %d is %d, reference %d", label, i, j, g.Nodes[j], w.Nodes[j])
			}
		}
	}
}

// hybridConfig is a shard serving every query through the many-to-many
// engine over a customizable overlay it builds itself.
func hybridConfig() server.Config {
	c := server.DefaultConfig()
	c.Strategy = server.StrategyHybrid
	c.BuildCH = true
	return c
}

// TestFleetEquivalence is the whole-query placement property test: for both
// serving strategies and both fleet modes, a router over two shards answers a mixed-shape workload with exactly the
// distance tables and paths a single server produces. The workload's shapes
// run from point queries to wide tables, all of which hybrid shards serve
// through the many-to-many engine.
func TestFleetEquivalence(t *testing.T) {
	g := testGraph(t, 400, 1201)
	qs := makeQueries(g, 20, 4301)

	strategies := []struct {
		name string
		cfg  func() server.Config
	}{
		{"ssmd", server.DefaultConfig},
		{"hybrid", hybridConfig},
	}
	for _, st := range strategies {
		for _, mode := range []fleet.Mode{fleet.ModePartition, fleet.ModeReplicate} {
			t.Run(fmt.Sprintf("%s/%s", st.name, mode), func(t *testing.T) {
				ref := server.MustNew(g, st.cfg())
				cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Mode: mode, Server: st.cfg()})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()

				for _, q := range qs {
					want, err := ref.Evaluate(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cl.Router.Execute(q)
					if err != nil {
						t.Fatalf("query %d: %v", q.QueryID, err)
					}
					assertSameReply(t, fmt.Sprintf("q%d", q.QueryID), got, want)
				}

				// The whole workload again as one routed batch.
				replies, errs := cl.Router.ExecuteBatch(qs)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("batch query %d: %v", qs[i].QueryID, err)
					}
					want, err := ref.Evaluate(qs[i])
					if err != nil {
						t.Fatal(err)
					}
					assertSameReply(t, fmt.Sprintf("batch q%d", qs[i].QueryID), replies[i], want)
				}

				if st.name == "hybrid" {
					var mtmQueries, fallback int64
					for i := 0; i < cl.NumShards(); i++ {
						m := cl.Shard(i).Server().Metrics()
						mtmQueries += m.Counter("mtm_queries")
						fallback += m.Counter("fallback_queries")
					}
					if mtmQueries == 0 || fallback != 0 {
						t.Errorf("shards served mtm_queries = %d, fallback_queries = %d; the workload must run on the overlay", mtmQueries, fallback)
					}
				}
				m := cl.Router.Metrics()
				if sub, q := m.Counter("fleet_subqueries"), m.Counter("fleet_queries"); sub != q {
					t.Errorf("fleet_subqueries = %d for fleet_queries = %d: every query must be answered by one shard", sub, q)
				}
			})
		}
	}
}

// TestFleetWeightUpdateEquivalence drives live weight updates through the
// router and checks the fleet keeps answering exactly like a single server
// receiving the same updates.
func TestFleetWeightUpdateEquivalence(t *testing.T) {
	g := testGraph(t, 300, 1401)
	ref := server.MustNew(g, server.DefaultConfig())
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(5501))
	qs := makeQueries(g, 4, 4501)
	for round := 0; round < 5; round++ {
		var changes []roadnet.ArcWeightChange
		for i := 0; i < 8; i++ {
			v := roadnet.NodeID(rng.Intn(g.NumNodes()))
			arcs := g.Arcs(v)
			if len(arcs) == 0 {
				continue
			}
			a := arcs[rng.Intn(len(arcs))]
			changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: a.Cost * (0.5 + rng.Float64())})
		}
		if err := cl.Router.UpdateWeights(changes); err != nil {
			t.Fatalf("round %d: fleet update: %v", round, err)
		}
		if _, err := ref.UpdateWeights(changes); err != nil {
			t.Fatalf("round %d: reference update: %v", round, err)
		}
		for _, q := range qs {
			want, err := ref.Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Router.Execute(q)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, q.QueryID, err)
			}
			assertSameReply(t, fmt.Sprintf("round %d q%d", round, q.QueryID), got, want)
		}
	}
	if n := cl.Router.Metrics().Counter("fleet_weight_updates"); n != 5 {
		t.Errorf("fleet_weight_updates = %d, want 5", n)
	}
}

// TestFleetKillMidBatch kills one shard under a live batch workload: the
// dead shard's queries fail over to the survivor — its breaker trips after
// the bounded retry budget and placement routes its work elsewhere — so every
// query keeps answering the exact single-server table and no ShardError
// surfaces to callers; a restart brings the fleet back whole.
func TestFleetKillMidBatch(t *testing.T) {
	g := testGraph(t, 300, 1501)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		Fleet: fleet.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
			FailThreshold: 2, BreakerCooldown: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	qs := makeQueries(g, 12, 4601)
	// Warm every connection, then kill shard 1 mid-workload.
	if _, err := cl.Router.Execute(qs[0]); err != nil {
		t.Fatal(err)
	}
	cl.Kill(1)

	replies, errs := cl.Router.ExecuteBatch(qs)
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d failed during the outage (failover should have re-owned it): %v", qs[i].QueryID, err)
			continue
		}
		want, werr := ref.Evaluate(qs[i])
		if werr != nil {
			t.Fatal(werr)
		}
		assertSameReply(t, fmt.Sprintf("failover q%d", qs[i].QueryID), replies[i], want)
	}
	m := cl.Router.Metrics()
	if m.Counter("fleet_shard_failures") == 0 {
		t.Error("fleet_shard_failures never counted the dead shard")
	}
	if m.Counter("fleet_breaker_trips") == 0 {
		t.Error("fleet_breaker_trips = 0: the dead shard's circuit never opened")
	}
	if m.Counter("fleet_failovers") == 0 {
		t.Error("fleet_failovers = 0: no work was re-owned to the survivor")
	}
	states := cl.Router.ShardStates()
	if states[1] != fleet.ShardDown {
		t.Errorf("shard 1 state = %v after the outage, want down", states[1])
	}
	if states[0] != fleet.ShardUp {
		t.Errorf("shard 0 state = %v, want up", states[0])
	}

	// Restart heals the fleet: the breaker's half-open probe re-admits the
	// shard (after the cooldown) and everything answers again.
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	replies, errs = cl.Router.ExecuteBatch(qs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d still failing after restart: %v", qs[i].QueryID, err)
		}
		want, werr := ref.Evaluate(qs[i])
		if werr != nil {
			t.Fatal(werr)
		}
		assertSameReply(t, fmt.Sprintf("healed q%d", qs[i].QueryID), replies[i], want)
	}
}

// TestFleetRestartMidChurn restarts a shard in the middle of a weight-update
// stream. The restarted shard comes back with base weights; the router's
// reconnect replay must bring it to the fleet metric before it serves, so the
// fleet answer equals the reference server that saw every update — and the
// router never lets the restarted shard answer from its stale metric.
func TestFleetRestartMidChurn(t *testing.T) {
	g := testGraph(t, 300, 1601)
	ref := server.MustNew(g, server.DefaultConfig())
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(5701))
	update := func() {
		var changes []roadnet.ArcWeightChange
		for i := 0; i < 6; i++ {
			v := roadnet.NodeID(rng.Intn(g.NumNodes()))
			if arcs := g.Arcs(v); len(arcs) > 0 {
				a := arcs[0]
				changes = append(changes, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: a.Cost * (0.5 + rng.Float64())})
			}
		}
		if err := cl.Router.UpdateWeights(changes); err != nil {
			t.Fatalf("fleet update: %v", err)
		}
		if _, err := ref.UpdateWeights(changes); err != nil {
			t.Fatalf("reference update: %v", err)
		}
	}

	update()
	update()
	cl.Kill(0)
	update() // lands while shard 0 is down; only the replay can deliver it
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	update()

	for _, q := range makeQueries(g, 10, 4701) {
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("query %d after restart: %v", q.QueryID, err)
		}
		assertSameReply(t, fmt.Sprintf("churn q%d", q.QueryID), got, want)
	}
	if cl.Router.Metrics().Counter("fleet_replays") == 0 {
		t.Error("fleet_replays = 0: the restarted shard was admitted without a weight replay")
	}
}

// TestDivergedShardAnswersWhole pins "never a mixed-metric table" under
// whole-query placement. Shard 0's metric diverges behind the router's back,
// and in both fleet modes every query still answers from exactly one shard:
// each reply's costs are the reference distances under the metric of the
// shard whose content checksum it carries.
func TestDivergedShardAnswersWhole(t *testing.T) {
	g := testGraph(t, 300, 1701)
	qs := makeQueries(g, 50, 4801)
	change := shortestPathArcChange(t, g, qs)

	for _, mode := range []fleet.Mode{fleet.ModePartition, fleet.ModeReplicate} {
		t.Run(mode.String(), func(t *testing.T) {
			cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Shard(0).Server().UpdateWeights([]roadnet.ArcWeightChange{change}); err != nil {
				t.Fatal(err)
			}
			metricOf := make(map[uint64]storage.Accessor)
			for i := 0; i < cl.NumShards(); i++ {
				srv := cl.Shard(i).Server()
				metricOf[srv.HelloInfo().ContentSum] = storage.NewMemoryGraph(srv.Graph())
			}
			if len(metricOf) != 2 {
				t.Fatalf("diverged shards report %d distinct content checksums, want 2", len(metricOf))
			}

			answeredBy := make(map[uint64]int)
			disagreeing := 0
			check := func(label string, q protocol.ServerQuery, rep protocol.ServerReply) {
				t.Helper()
				acc, ok := metricOf[rep.ContentSum]
				if !ok {
					t.Fatalf("%s: reply carries content checksum %x, which no shard has", label, rep.ContentSum)
				}
				answeredBy[rep.ContentSum]++
				if len(rep.Paths) != len(q.Sources)*len(q.Dests) {
					t.Fatalf("%s: table has %d candidates for %d×%d", label, len(rep.Paths), len(q.Sources), len(q.Dests))
				}
				for i, cand := range rep.Paths {
					s, d := q.Sources[i/len(q.Dests)], q.Dests[i%len(q.Dests)]
					if cand.Source != s || cand.Dest != d {
						t.Fatalf("%s[%d]: slot (%d,%d), want (%d,%d)", label, i, cand.Source, cand.Dest, s, d)
					}
					want, found := referenceCost(t, acc, s, d)
					if cand.Found != found || (found && math.Abs(cand.Cost-want) > 1e-9) {
						t.Fatalf("%s[%d]: found=%v cost %v, reference on its shard's metric found=%v cost %v", label, i, cand.Found, cand.Cost, found, want)
					}
					for sum, other := range metricOf {
						if sum == rep.ContentSum {
							continue
						}
						if alt, altFound := referenceCost(t, other, s, d); altFound != found || alt != want {
							disagreeing++
						}
					}
				}
			}

			for _, q := range qs {
				rep, err := cl.Router.Execute(q)
				if err != nil {
					t.Fatalf("query %d across diverged shards: %v", q.QueryID, err)
				}
				check(fmt.Sprintf("q%d", q.QueryID), q, rep)
			}
			replies, errs := cl.Router.ExecuteBatch(qs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("batch query %d across diverged shards: %v", qs[i].QueryID, err)
				}
				check(fmt.Sprintf("batch q%d", qs[i].QueryID), qs[i], replies[i])
			}

			m := cl.Router.Metrics()
			if sub, q := m.Counter("fleet_subqueries"), m.Counter("fleet_queries"); sub != q {
				t.Errorf("fleet_subqueries = %d for fleet_queries = %d: a query was split across shards", sub, q)
			}
			if len(answeredBy) != 2 {
				t.Errorf("every reply came from one metric (%v); the diverged shard was never exercised", answeredBy)
			}
			if disagreeing == 0 {
				t.Error("no answered slot differs between the two metrics; the divergence proves nothing")
			}
		})
	}
}

// shortestPathArcChange returns a change tripling the first arc of the first
// multi-node shortest path among qs's pairs, so a shard that applies it
// answers at least one slot differently.
func shortestPathArcChange(t *testing.T, g *roadnet.Graph, qs []protocol.ServerQuery) roadnet.ArcWeightChange {
	t.Helper()
	acc := storage.NewMemoryGraph(g)
	for _, q := range qs {
		for _, s := range q.Sources {
			for _, d := range q.Dests {
				p, _, err := search.ReferenceDijkstra(acc, s, d)
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Nodes) < 2 {
					continue
				}
				cost, ok := g.ArcCost(p.Nodes[0], p.Nodes[1])
				if !ok {
					t.Fatalf("shortest path uses missing arc %d→%d", p.Nodes[0], p.Nodes[1])
				}
				return roadnet.ArcWeightChange{From: p.Nodes[0], To: p.Nodes[1], NewCost: cost * 3}
			}
		}
	}
	t.Fatal("no query pair has a multi-node shortest path")
	return roadnet.ArcWeightChange{}
}

// referenceCost is the reference Dijkstra distance from s to d on acc, and
// whether d is reachable.
func referenceCost(t *testing.T, acc storage.Accessor, s, d roadnet.NodeID) (float64, bool) {
	t.Helper()
	p, _, err := search.ReferenceDijkstra(acc, s, d)
	if err != nil {
		t.Fatal(err)
	}
	return p.Cost, len(p.Nodes) > 0
}

// TestFleetOverloadShedding puts every shard behind a ShedAt=1 admission
// watermark: all replies come back Degraded (distance-only), with the exact
// reference costs — overload degrades fidelity, never correctness.
func TestFleetOverloadShedding(t *testing.T) {
	g := testGraph(t, 300, 1801)
	ref := server.MustNew(g, server.DefaultConfig())
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		Mux:    protocol.MuxServerConfig{ShedAt: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, q := range makeQueries(g, 6, 4901) {
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("query %d: %v", q.QueryID, err)
		}
		if !got.Degraded {
			t.Fatalf("query %d not marked Degraded under ShedAt=1", q.QueryID)
		}
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("query %d: %d candidates, reference %d", q.QueryID, len(got.Paths), len(want.Paths))
		}
		for i, cand := range got.Paths {
			if len(cand.Nodes) != 0 {
				t.Errorf("query %d[%d]: shed reply materialised a %d-node path", q.QueryID, i, len(cand.Nodes))
			}
			if cand.Found != want.Paths[i].Found {
				t.Errorf("query %d[%d]: found=%v, reference %v", q.QueryID, i, cand.Found, want.Paths[i].Found)
			}
			if cand.Found && math.Abs(cand.Cost-want.Paths[i].Cost) > 1e-9 {
				t.Errorf("query %d[%d]: shed cost %v, reference %v", q.QueryID, i, cand.Cost, want.Paths[i].Cost)
			}
		}
	}
	if cl.Router.Metrics().Counter("fleet_degraded_replies") == 0 {
		t.Error("fleet_degraded_replies = 0 with every reply shed")
	}
}

// TestReplayStateOwnsItsCopy pins an ownership rule of the update path: the
// router's cumulative replay state keeps values, not the caller's slice — a
// caller that reuses its change buffer after UpdateWeights returns cannot
// rewrite what a reconnecting shard is later replayed.
func TestReplayStateOwnsItsCopy(t *testing.T) {
	g := testGraph(t, 300, 1901)
	// Quorum 2: both shards have applied the update before anything is killed.
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Fleet: fleet.Config{UpdateQuorum: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v := roadnet.NodeID(0)
	for len(g.Arcs(v)) == 0 {
		v++
	}
	arc := g.Arcs(v)[0]
	changes := []roadnet.ArcWeightChange{{From: v, To: arc.To, NewCost: arc.Cost * 3}}
	if err := cl.Router.UpdateWeights(changes); err != nil {
		t.Fatal(err)
	}
	changes[0].NewCost = arc.Cost * 100 // the caller's buffer moves on

	cl.Kill(0)
	if err := cl.Restart(0); err != nil {
		t.Fatal(err)
	}
	// The restarted shard comes up on base weights; the first query through
	// the router reconnects it and replays the recorded state into it.
	for _, q := range makeQueries(g, 8, 4901) {
		if _, err := cl.Router.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := cl.Shard(0).Server().Graph().ArcCost(v, arc.To); got != arc.Cost*3 {
		t.Errorf("replayed cost of arc %d→%d = %v, want the recorded %v", v, arc.To, got, arc.Cost*3)
	}
}
