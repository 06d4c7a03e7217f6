package fleet_test

// The fleet test battery: the scatter/gather equivalence property (a router
// over partition or replicate shards answers exactly like one server), the
// fault-injection battery (shard kill and restart mid-batch and mid-churn,
// bounded retry, reconnect replay) and the merge-refusal guarantee (no reply
// ever mixes weight generations across shards). Everything runs in-process
// over net.Pipe via the fleettest harness, and the whole file is exercised
// under -race in CI.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"opaque/internal/costmodel"
	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
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
// table. Costs and reachability must agree exactly for every (s, t) slot;
// node sequences must match exactly unless pathsMayDiffer (hybrid routing
// picks CH or MTM by |S|·|T|, which the partition split changes, so equal-cost
// ties can unpack differently).
func assertSameReply(t *testing.T, label string, got, want protocol.ServerReply, pathsMayDiffer bool) {
	t.Helper()
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: table has %d candidates, reference %d", label, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		g, w := got.Paths[i], want.Paths[i]
		if g.Source != w.Source || g.Dest != w.Dest {
			t.Fatalf("%s[%d]: slot (%d,%d), reference (%d,%d) — merge reordered the table", label, i, g.Source, g.Dest, w.Source, w.Dest)
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
		if pathsMayDiffer {
			if len(g.Nodes) > 0 && (g.Nodes[0] != g.Source || g.Nodes[len(g.Nodes)-1] != g.Dest) {
				t.Fatalf("%s[%d]: path endpoints %d..%d for pair (%d,%d)", label, i, g.Nodes[0], g.Nodes[len(g.Nodes)-1], g.Source, g.Dest)
			}
			continue
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

// TestFleetEquivalence is the scatter/gather property test behind the
// acceptance criteria: for both serving strategies and both fleet shapes, a
// router over two shards answers a mixed-shape workload with exactly the
// distance tables and paths a single server produces. The workload's shapes
// run from point queries to wide tables, all of which hybrid shards serve
// through the many-to-many engine.
func TestFleetEquivalence(t *testing.T) {
	g := testGraph(t, 400, 1201)
	qs := makeQueries(g, 20, 4301)

	strategies := []struct {
		name           string
		cfg            func() server.Config
		pathsMayDiffer bool
	}{
		{"ssmd", server.DefaultConfig, false},
		{"hybrid", func() server.Config {
			c := server.DefaultConfig()
			c.Strategy = server.StrategyHybrid
			c.BuildCH = true
			return c
		}, true},
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
					assertSameReply(t, fmt.Sprintf("q%d", q.QueryID), got, want, st.pathsMayDiffer)
				}

				// The whole workload again as one scattered batch.
				replies, errs := cl.Router.ExecuteBatch(qs)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("batch query %d: %v", qs[i].QueryID, err)
					}
					want, err := ref.Evaluate(qs[i])
					if err != nil {
						t.Fatal(err)
					}
					assertSameReply(t, fmt.Sprintf("batch q%d", qs[i].QueryID), replies[i], want, st.pathsMayDiffer)
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
				if mode == fleet.ModePartition {
					m := cl.Router.Metrics()
					if m.Counter("fleet_subqueries") <= m.Counter("fleet_queries") {
						t.Errorf("partition mode never split a query: %d subqueries for %d queries",
							m.Counter("fleet_subqueries"), m.Counter("fleet_queries"))
					}
				}
			})
		}
	}
}

// TestFleetProfileEquivalence runs the property over precustomized weight
// profile layers: every shard resolves the named profile to the same metric,
// so the merged table equals the reference and no profile skew is counted.
func TestFleetProfileEquivalence(t *testing.T) {
	g := testGraph(t, 300, 1301)
	cfg := server.DefaultConfig()
	cfg.Profiles = costmodel.TimeOfDayProfiles()
	cfg.PrewarmProfiles = true

	ref := server.MustNew(g, cfg)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	qs := makeQueries(g, 8, 4401)
	for qi := range qs {
		qs[qi].Profile = cfg.Profiles[qi%len(cfg.Profiles)].Name
	}
	for _, q := range qs {
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("profile %q query %d: %v", q.Profile, q.QueryID, err)
		}
		if got.Profile != q.Profile {
			t.Errorf("query %d echoed profile %q, want %q", q.QueryID, got.Profile, q.Profile)
		}
		assertSameReply(t, fmt.Sprintf("profile %q q%d", q.Profile, q.QueryID), got, want, false)
	}
	if n := cl.Router.Metrics().Counter("fleet_profile_skew"); n != 0 {
		t.Errorf("fleet_profile_skew = %d on a uniform fleet", n)
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
			assertSameReply(t, fmt.Sprintf("round %d q%d", round, q.QueryID), got, want, false)
		}
	}
	if n := cl.Router.Metrics().Counter("fleet_weight_updates"); n != 5 {
		t.Errorf("fleet_weight_updates = %d, want 5", n)
	}
}

// TestFleetKillMidBatch kills one shard under a live batch workload: the
// dead shard's queries fail over to the survivor — its breaker trips after
// the bounded retry budget and the re-scatter re-owns its work — so every
// query keeps answering the exact single-server table and no ShardError
// surfaces to callers; a restart brings the fleet back whole.
func TestFleetKillMidBatch(t *testing.T) {
	g := testGraph(t, 300, 1501)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		Fleet: fleet.Config{
			Retries: 1, RetryBackoff: time.Millisecond, SkewRetries: 1,
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
		assertSameReply(t, fmt.Sprintf("failover q%d", qs[i].QueryID), replies[i], want, false)
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
		assertSameReply(t, fmt.Sprintf("healed q%d", qs[i].QueryID), replies[i], want, false)
	}
}

// TestFleetRestartMidChurn restarts a shard in the middle of a weight-update
// stream. The restarted shard comes back with base weights; the router's
// reconnect replay must bring it to the fleet metric before it serves, so the
// fleet answer equals the reference server that saw every update — and the
// router never merges the restarted shard's stale table into a reply.
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
		assertSameReply(t, fmt.Sprintf("churn q%d", q.QueryID), got, want, false)
	}
	if cl.Router.Metrics().Counter("fleet_replays") == 0 {
		t.Error("fleet_replays = 0: the restarted shard was admitted without a weight replay")
	}
}

// TestFleetMergeRefusal pins the generation handshake: when one shard's
// metric diverges (an update applied behind the router's back), the router
// refuses to merge the mixed-generation partial tables — surfacing
// ErrGenerationSkew and the fleet_generation_skew counter — rather than ever
// serving a table that mixes weight generations.
func TestFleetMergeRefusal(t *testing.T) {
	g := testGraph(t, 300, 1701)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		// UpdateQuorum 2: see the convergence step below.
		Fleet: fleet.Config{SkewRetries: 2, RetryBackoff: 1, UpdateQuorum: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find a query the partition actually splits across both shards.
	var split protocol.ServerQuery
	for _, q := range makeQueries(g, 50, 4801) {
		owners := make(map[int]bool)
		for _, s := range q.Sources {
			owners[cl.Partition.CellOf(s)%2] = true
		}
		if len(owners) == 2 {
			split = q
			break
		}
	}
	if split.QueryID == 0 {
		t.Fatal("no query split across both shards in 50 samples")
	}
	if _, err := cl.Router.Execute(split); err != nil {
		t.Fatalf("pre-divergence query: %v", err)
	}

	// Diverge shard 0 behind the router's back: its ContentSum now differs
	// from shard 1's on every reply.
	v := split.Sources[0]
	arcs := g.Arcs(v)
	if len(arcs) == 0 {
		v = roadnet.NodeID(0)
		arcs = g.Arcs(v)
	}
	if _, err := cl.Shard(0).Server().UpdateWeights([]roadnet.ArcWeightChange{
		{From: v, To: arcs[0].To, NewCost: arcs[0].Cost * 3},
	}); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Router.Execute(split)
	if !errors.Is(err, fleet.ErrGenerationSkew) {
		t.Fatalf("query across diverged shards: err = %v, want ErrGenerationSkew", err)
	}
	if cl.Router.Metrics().Counter("fleet_generation_skew") == 0 {
		t.Error("fleet_generation_skew never counted the refused merge")
	}

	// Converging the fleet through the router heals it: the same update
	// broadcast everywhere makes the checksums agree again. A shard acks once
	// the update is published, so the convergence step waits for both acks:
	// with quorum 1 the already-diverged shard's ack would return before the
	// other shard had published.
	if err := cl.Router.UpdateWeights([]roadnet.ArcWeightChange{
		{From: v, To: arcs[0].To, NewCost: arcs[0].Cost * 3},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Router.Execute(split); err != nil {
		t.Fatalf("query after convergence: %v", err)
	}
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
