package server

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"opaque/internal/costmodel"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// profileServer builds a hybrid server with a partitioned customizable
// overlay and the built-in time-of-day profiles prewarmed.
func profileServer(t *testing.T, n int, seed int64) (*Server, *roadnet.Graph) {
	t.Helper()
	g := updateTestGraph(t, n, seed)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	cfg.PartitionCells = 4
	cfg.Profiles = costmodel.TimeOfDayProfiles()
	cfg.PrewarmProfiles = true
	return MustNew(g, cfg), g
}

// checkReplyMatchesMetric asserts every candidate distance of the reply
// equals the reference distance on the given metric graph.
func checkReplyMatchesMetric(t *testing.T, metric *roadnet.Graph, reply protocol.ServerReply) {
	t.Helper()
	for _, cand := range reply.Paths {
		want := referenceDistance(t, metric, cand.Source, cand.Dest)
		got := cand.Cost
		if len(cand.Nodes) == 0 && cand.Source != cand.Dest {
			got = math.Inf(1)
		}
		if got != want && math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("pair (%d,%d): served %v, metric graph says %v", cand.Source, cand.Dest, got, want)
		}
	}
}

// TestProfileQueriesServeProfileMetric: a query naming a profile must be
// answered with distances of that profile's reweighted graph — not the live
// metric — for both the pairwise and many-to-many overlay routes.
func TestProfileQueriesServeProfileMetric(t *testing.T) {
	s, g := profileServer(t, 80, 601)
	rng := rand.New(rand.NewSource(602))
	for _, name := range []string{costmodel.ProfileAMPeak, costmodel.ProfileNight} {
		metric, err := s.ProfileGraph(name)
		if err != nil {
			t.Fatal(err)
		}
		if metric.ContentChecksum() == g.ContentChecksum() {
			t.Fatalf("%s: profile metric identical to base metric", name)
		}
		// Point-shaped and wide queries.
		for _, shape := range []int{1, 4} {
			srcs := make([]roadnet.NodeID, shape)
			dsts := make([]roadnet.NodeID, shape)
			for i := range srcs {
				srcs[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
				dsts[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			}
			reply, err := s.Evaluate(protocol.ServerQuery{Sources: srcs, Dests: dsts, Profile: name})
			if err != nil {
				t.Fatal(err)
			}
			checkReplyMatchesMetric(t, metric, reply)
		}
	}
	// Queries without a profile keep serving the live metric.
	reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{5}})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesMetric(t, g, reply)
}

func TestProfileUnknownNameFails(t *testing.T) {
	s, _ := profileServer(t, 60, 603)
	_, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}, Profile: "rush-hour-on-mars"})
	if err == nil || !strings.Contains(err.Error(), "unknown weight profile") {
		t.Fatalf("unknown profile error = %v", err)
	}
	if got := s.Metrics().Counter("queries_failed"); got != 1 {
		t.Errorf("queries_failed = %d, want 1", got)
	}
}

func TestProfileWithoutConfigurationFails(t *testing.T) {
	g := updateTestGraph(t, 40, 604)
	cfg := DefaultConfig()
	s := MustNew(g, cfg)
	_, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}, Profile: costmodel.ProfileNight})
	if err == nil || !strings.Contains(err.Error(), "no profiles configured") {
		t.Fatalf("unconfigured profile error = %v", err)
	}
}

// TestProfileLayerHitMissCounters: prewarmed layers miss exactly once each
// (at startup) and every query afterwards is a hit — zero customization on
// the query path.
func TestProfileLayerHitMissCounters(t *testing.T) {
	s, g := profileServer(t, 60, 605)
	m := s.Metrics()
	misses0 := m.Counter("profile_layer_misses")
	if misses0 != int64(len(costmodel.TimeOfDayProfiles())) {
		t.Fatalf("prewarm misses = %d, want %d", misses0, len(costmodel.TimeOfDayProfiles()))
	}
	recust0 := m.Counter("recustomize_runs")
	const queries = 10
	for i := 0; i < queries; i++ {
		src := roadnet.NodeID(i % g.NumNodes())
		dst := roadnet.NodeID((i * 7) % g.NumNodes())
		if _, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{src}, Dests: []roadnet.NodeID{dst}, Profile: costmodel.ProfileOffPeak}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := m.Counter("profile_layer_hits"); hits != queries {
		t.Errorf("profile_layer_hits = %d, want %d", hits, queries)
	}
	if misses := m.Counter("profile_layer_misses"); misses != misses0 {
		t.Errorf("profile_layer_misses grew %d → %d during queries; layers must be served precustomized", misses0, misses)
	}
	if recust := m.Counter("recustomize_runs"); recust != recust0 {
		t.Errorf("recustomize_runs grew %d → %d from profile queries; the query path must cost zero customization", recust0, recust)
	}
	if st := s.ProfileLayerStats(); st.Layers != len(costmodel.TimeOfDayProfiles()) {
		t.Errorf("resident layers = %d, want %d", st.Layers, len(costmodel.TimeOfDayProfiles()))
	}
}

// TestProfileServingSurvivesLiveUpdates: profile layers bind to the startup
// metric, so live weight updates neither invalidate them nor stall their
// queries — even while an applied update awaits publication.
func TestProfileServingSurvivesLiveUpdates(t *testing.T) {
	s, g := profileServer(t, 80, 606)
	metric, err := s.ProfileGraph(costmodel.ProfilePMPeak)
	if err != nil {
		t.Fatal(err)
	}
	// Live updates must never touch the precustomized layers: the miss
	// counter stays where prewarming left it through the whole update.
	m := s.Metrics()
	misses0 := m.Counter("profile_layer_misses")
	if _, err := s.ApplyWeights([]roadnet.ArcWeightChange{doubleOneArc(t, g)}); err != nil {
		t.Fatal(err)
	}
	// ApplyWeights deliberately skips the publication: the live epoch now
	// trails the graph. Profile queries must still serve full-speed,
	// correct, profile-metric answers.
	if s.OverlayFresh() {
		t.Fatal("test setup: the applied update should be unpublished after ApplyWeights")
	}
	reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{2}, Dests: []roadnet.NodeID{9}, Profile: costmodel.ProfilePMPeak})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesMetric(t, metric, reply)
	if misses := m.Counter("profile_layer_misses"); misses != misses0 {
		t.Errorf("profile_layer_misses grew %d → %d on a profile query under a live update", misses0, misses)
	}
	if err := s.RecustomizeNow(); err != nil {
		t.Fatal(err)
	}
	if !s.OverlayFresh() {
		t.Error("applied update still unpublished after RecustomizeNow")
	}
	if misses := m.Counter("profile_layer_misses"); misses != misses0 {
		t.Errorf("profile_layer_misses grew %d → %d across RecustomizeNow; publication must not rebuild profile layers", misses0, misses)
	}
}

// TestProfileLRUEvictionRebuilds: capacity below the catalog size forces
// evictions; an evicted profile rebuilds on demand and serves correctly.
func TestProfileLRUEvictionRebuilds(t *testing.T) {
	g := updateTestGraph(t, 60, 607)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyHybrid
	cfg.BuildCH = true
	cfg.Profiles = costmodel.TimeOfDayProfiles()
	cfg.ProfileCapacity = 2
	cfg.PrewarmProfiles = true
	s := MustNew(g, cfg)
	st := s.ProfileLayerStats()
	if st.Layers != 2 {
		t.Fatalf("resident layers = %d, want capacity 2", st.Layers)
	}
	if st.Evictions == 0 {
		t.Fatal("prewarming 4 profiles into capacity 2 must evict")
	}
	// Every profile still answers — evicted ones rebuild (one more miss).
	for _, p := range costmodel.TimeOfDayProfiles() {
		metric, err := s.ProfileGraph(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{3}, Dests: []roadnet.NodeID{11}, Profile: p.Name})
		if err != nil {
			t.Fatal(err)
		}
		checkReplyMatchesMetric(t, metric, reply)
	}
}

func TestProfileConfigValidation(t *testing.T) {
	g := updateTestGraph(t, 40, 608)

	paged := DefaultConfig()
	paged.Paged = true
	paged.Profiles = costmodel.TimeOfDayProfiles()
	if _, err := New(g, paged); err == nil {
		t.Error("profiles on a paged server must be refused")
	}

	dup := DefaultConfig()
	dup.Profiles = []costmodel.WeightProfile{costmodel.TimeOfDayProfiles()[0], costmodel.TimeOfDayProfiles()[0]}
	if _, err := New(g, dup); err == nil {
		t.Error("duplicate profile names must be refused")
	}
}

// TestProfileOnFlatServer: an SSMD server without any overlay still serves
// profiles, through flat per-profile processors.
func TestProfileOnFlatServer(t *testing.T) {
	g := updateTestGraph(t, 50, 609)
	cfg := DefaultConfig()
	cfg.Profiles = costmodel.TimeOfDayProfiles()
	cfg.PrewarmProfiles = true
	s := MustNew(g, cfg)
	metric, err := s.ProfileGraph(costmodel.ProfileNight)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := s.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{7, 8}, Profile: costmodel.ProfileNight})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyMatchesMetric(t, metric, reply)
}

// TestRouteCountersCoverProfileQueries: live and profile queries route
// through the same function, so mtm_queries + fallback_queries equals
// queries_processed however the traffic mixes metrics and shapes — on a
// hybrid server (every query on the overlay) and on a flat one (SSMD only).
func TestRouteCountersCoverProfileQueries(t *testing.T) {
	flatCfg := DefaultConfig()
	flatCfg.Profiles = costmodel.TimeOfDayProfiles()
	flatServer := MustNew(updateTestGraph(t, 60, 610), flatCfg)
	hybridServer, _ := profileServer(t, 60, 611)

	for name, s := range map[string]*Server{"hybrid": hybridServer, "flat": flatServer} {
		for i, profile := range []string{"", costmodel.ProfileAMPeak, "", costmodel.ProfileNight} {
			for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 4}} {
				q := protocol.ServerQuery{Profile: profile}
				for j := 0; j < shape[0]; j++ {
					q.Sources = append(q.Sources, roadnet.NodeID(i+3*j))
				}
				for j := 0; j < shape[1]; j++ {
					q.Dests = append(q.Dests, roadnet.NodeID(30+i+5*j))
				}
				if _, err := s.Evaluate(q); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		m := s.Metrics()
		routed := m.Counter("mtm_queries") + m.Counter("fallback_queries")
		if served := m.Counter("queries_processed"); routed != served || served != 16 {
			t.Errorf("%s: mtm+fallback = %d, queries_processed = %d, want both 16", name, routed, served)
		}
		if name == "hybrid" && m.Counter("mtm_queries") != 16 {
			t.Errorf("hybrid: mtm_queries = %d, want 16", m.Counter("mtm_queries"))
		}
	}
}
