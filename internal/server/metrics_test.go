package server

import (
	"testing"

	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

func TestServerRecordsMetrics(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	for i := 0; i < 3; i++ {
		q := protocol.ServerQuery{
			Sources: []roadnet.NodeID{roadnet.NodeID(i), roadnet.NodeID(i + 10)},
			Dests:   []roadnet.NodeID{roadnet.NodeID(100 + i)},
		}
		if _, err := srv.Evaluate(q); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if got := m.Counter("queries_processed"); got != 3 {
		t.Errorf("queries_processed = %d, want 3", got)
	}
	if got := m.Counter("candidate_pairs"); got != 6 {
		t.Errorf("candidate_pairs = %d, want 6", got)
	}
	if m.Counter("nodes_settled") <= 0 {
		t.Error("nodes_settled not recorded")
	}
	if h := m.Histogram("query_latency"); h == nil || h.Count() != 3 {
		t.Error("query_latency histogram not recorded")
	}
	// Failed queries are counted separately.
	if _, err := srv.Evaluate(protocol.ServerQuery{}); err == nil {
		t.Fatal("empty query accepted")
	}
	// Note: validation failures happen before the processor runs and are not
	// counted as processed.
	if got := m.Counter("queries_processed"); got != 3 {
		t.Errorf("queries_processed after invalid query = %d, want 3", got)
	}
}

// TestRouteCountersCoverEveryQuery: every query routes through one function,
// so mtm_queries + fallback_queries equals queries_processed however the
// traffic mixes shapes — on a hybrid server (every query on the overlay) and
// on a flat one (SSMD only).
func TestRouteCountersCoverEveryQuery(t *testing.T) {
	hybridCfg := DefaultConfig()
	hybridCfg.Strategy = StrategyHybrid
	hybridCfg.BuildCH = true
	servers := map[string]*Server{
		"hybrid": MustNew(updateTestGraph(t, 60, 611), hybridCfg),
		"flat":   MustNew(updateTestGraph(t, 60, 610), DefaultConfig()),
	}
	for name, s := range servers {
		for i := 0; i < 4; i++ {
			for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 4}} {
				var q protocol.ServerQuery
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
		want := map[string]int64{"hybrid": 16, "flat": 0}[name]
		if got := m.Counter("mtm_queries"); got != want {
			t.Errorf("%s: mtm_queries = %d, want %d", name, got, want)
		}
	}
}
