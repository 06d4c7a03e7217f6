package server

import (
	"errors"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 800
	cfg.Seed = 71
	return gen.MustGenerate(cfg)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil graph accepted")
	}
	mutable := roadnet.NewGraph(1, 0)
	mutable.AddNode(0, 0)
	if _, err := New(mutable, DefaultConfig()); err == nil {
		t.Error("unfrozen graph accepted")
	}
	g := testGraph(t)

	// The serving surface is ssmd or hybrid; everything else, and every
	// overlay setting New would otherwise ignore or cannot serve, is a
	// typed error at startup rather than a failure on every query.
	overlay, err := ch.BuildCustomizable(g)
	if err != nil {
		t.Fatal(err)
	}
	refused := map[string]func(*Config){
		"bogus strategy":      func(c *Config) { c.Strategy = "bogus" },
		"pairwise":            func(c *Config) { c.Strategy = search.StrategyPairwise },
		"pairwise-astar":      func(c *Config) { c.Strategy = "pairwise-astar" },
		"pairwise-alt":        func(c *Config) { c.Strategy = "pairwise-alt" },
		"table-engine":        func(c *Config) { c.Strategy = "table-engine" },
		"ch":                  func(c *Config) { c.Strategy = "ch" },
		"ch-mtm":              func(c *Config) { c.Strategy = "ch-mtm" },
		"ssmd with CHOverlay": func(c *Config) { c.CHOverlay = overlay },
		"ssmd with BuildCH":   func(c *Config) { c.BuildCH = true },
		"unset with BuildCH":  func(c *Config) { c.Strategy, c.BuildCH = "", true },
	}
	for name, mutate := range refused {
		cfg := DefaultConfig()
		mutate(&cfg)
		var ce *ConfigError
		if _, err := New(g, cfg); !errors.As(err, &ce) {
			t.Errorf("%s: New returned %v, want a *ConfigError", name, err)
		}
	}
	accepted := map[string]func(*Config){
		"unset strategy":         func(c *Config) { c.Strategy = "" },
		"hybrid without overlay": func(c *Config) { c.Strategy = StrategyHybrid },
		"hybrid with CHOverlay":  func(c *Config) { c.Strategy, c.CHOverlay = StrategyHybrid, overlay },
	}
	for name, mutate := range accepted {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(g, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEvaluateMatchesDirectSearch(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	acc := storage.NewMemoryGraph(g)

	sources := []roadnet.NodeID{1, 50}
	dests := []roadnet.NodeID{200, 400, 600}
	reply, err := srv.Evaluate(protocol.ServerQuery{QueryID: 1, Sources: sources, Dests: dests})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Paths) != len(sources)*len(dests) {
		t.Fatalf("got %d candidate paths, want %d", len(reply.Paths), len(sources)*len(dests))
	}
	for _, c := range reply.Paths {
		want, _, err := search.Dijkstra(acc, c.Source, c.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if want.Empty() != !c.Found {
			t.Errorf("reachability mismatch for (%d,%d)", c.Source, c.Dest)
		}
		if c.Found && math.Abs(want.Cost-c.Cost) > 1e-6 {
			t.Errorf("cost %v != direct %v for (%d,%d)", c.Cost, want.Cost, c.Source, c.Dest)
		}
	}
	if reply.SettledNodes <= 0 {
		t.Error("settled node count missing from reply")
	}
}

func TestEvaluateRejectsEmptySets(t *testing.T) {
	srv := MustNew(testGraph(t), DefaultConfig())
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: nil, Dests: []roadnet.NodeID{1}}); err == nil {
		t.Error("empty source set accepted")
	}
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: nil}); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{-2}, Dests: []roadnet.NodeID{1}}); err == nil {
		t.Error("invalid source accepted")
	}
}

// TestEvaluateBindsTopology: a query that names the server's map is answered
// with the map on the reply — through every weight update, which leaves the
// topology alone — one that names another map is refused with
// protocol.ErrTopologyMismatch, alone and as one query of a batch, and one
// that names none gets a reply without a map.
func TestEvaluateBindsTopology(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	q := protocol.ServerQuery{QueryID: 1, Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}, Topology: g.TopologyChecksum()}
	reply, err := srv.Evaluate(q)
	if err != nil || reply.Map != srv.Graph() {
		t.Fatalf("query naming the server's map: map %p (err %v), want the served graph %p", reply.Map, err, srv.Graph())
	}
	a := g.Arcs(1)[0]
	if _, err := srv.UpdateWeights([]roadnet.ArcWeightChange{{From: 1, To: a.To, NewCost: 2 * a.Cost}}); err != nil {
		t.Fatal(err)
	}
	if reply, err := srv.Evaluate(q); err != nil || reply.Map != srv.Graph() || reply.Map == g {
		t.Fatalf("after a weight update: map %p (err %v), want the new snapshot's graph %p", reply.Map, err, srv.Graph())
	}
	if reply, err := srv.Evaluate(protocol.ServerQuery{QueryID: 2, Sources: q.Sources, Dests: q.Dests}); err != nil || reply.Map != nil {
		t.Fatalf("query naming no map: map %p (err %v), want none", reply.Map, err)
	}
	other := q
	other.Topology++
	if _, err := srv.Evaluate(other); !errors.Is(err, protocol.ErrTopologyMismatch) {
		t.Errorf("query naming another map: err = %v, want ErrTopologyMismatch", err)
	}
	results := srv.EvaluateBatch([]protocol.ServerQuery{q, other})
	if results[0].Err != nil || !errors.Is(results[1].Err, protocol.ErrTopologyMismatch) {
		t.Errorf("batch: errs %v, %v; want nil, ErrTopologyMismatch", results[0].Err, results[1].Err)
	}
}

func TestQueryLogAndStats(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1, 2}, Dests: []roadnet.NodeID{3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Evaluate(protocol.ServerQuery{QueryID: 77, Sources: []roadnet.NodeID{5}, Dests: []roadnet.NodeID{6}}); err != nil {
		t.Fatal(err)
	}
	log := srv.QueryLog()
	if len(log) != 2 {
		t.Fatalf("query log has %d entries, want 2", len(log))
	}
	if log[1].QueryID != 77 {
		t.Errorf("explicit query id not preserved: %d", log[1].QueryID)
	}
	if len(log[0].Sources) != 2 || len(log[0].Dests) != 1 {
		t.Errorf("log entry sets = %d/%d, want 2/1", len(log[0].Sources), len(log[0].Dests))
	}
	stats, n := srv.TotalStats()
	if n != 2 || stats.SettledNodes == 0 {
		t.Errorf("total stats = %+v over %d queries", stats, n)
	}
}

func TestNoLogWhenDisabled(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.KeepLog = false
	srv := MustNew(g, cfg)
	if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}}); err != nil {
		t.Fatal(err)
	}
	if len(srv.QueryLog()) != 0 {
		t.Error("query logged despite KeepLog=false")
	}
}

// TestStrategiesProduceSameCosts: the two serving strategies answer the same
// costs, point-ish and wide queries alike.
func TestStrategiesProduceSameCosts(t *testing.T) {
	g := testGraph(t)
	hybridCfg := DefaultConfig()
	hybridCfg.Strategy = StrategyHybrid
	hybridCfg.CHOverlay = chTestOverlay(t, g)
	ssmd, hybrid := MustNew(g, DefaultConfig()), MustNew(g, hybridCfg)
	for _, q := range []protocol.ServerQuery{
		{Sources: []roadnet.NodeID{3, 9}, Dests: []roadnet.NodeID{100, 300}},
		{Sources: []roadnet.NodeID{3, 9, 27}, Dests: []roadnet.NodeID{100, 300, 500}},
	} {
		a, err := ssmd.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hybrid.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range a.Paths {
			if math.Abs(b.Paths[i].Cost-c.Cost) > 1e-6 {
				t.Errorf("pair (%d,%d): ssmd cost %v, hybrid cost %v", c.Source, c.Dest, c.Cost, b.Paths[i].Cost)
			}
		}
	}
	if m := hybrid.Metrics(); m.Counter("mtm_queries") != 2 {
		t.Fatalf("hybrid routed mtm=%d, want both queries", m.Counter("mtm_queries"))
	}
}

func TestConcurrentEvaluate(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := roadnet.NodeID(i * 13 % g.NumNodes())
			d := roadnet.NodeID((i*29 + 100) % g.NumNodes())
			if _, err := srv.Evaluate(protocol.ServerQuery{Sources: []roadnet.NodeID{s}, Dests: []roadnet.NodeID{d}}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, n := srv.TotalStats(); n != 16 {
		t.Errorf("processed %d queries, want 16", n)
	}
}

func TestServeOverTCP(t *testing.T) {
	g := testGraph(t)
	srv := MustNew(g, DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeMux(ln, protocol.MuxServerConfig{}) }()
	defer ln.Close()

	conn, err := protocol.DialMux(ln.Addr().String(), protocol.Hello{Role: "obfuscator"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reply, err := conn.Do(protocol.ServerQuery{QueryID: 3, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{10}})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := reply.(protocol.ServerReply)
	if !ok || sr.QueryID != 3 || len(sr.Paths) != 1 {
		t.Errorf("TCP reply = %+v", reply)
	}
	// The wire form is the in-process answer, node for node.
	direct, err := srv.Evaluate(protocol.ServerQuery{QueryID: 3, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{10}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, direct) {
		t.Errorf("TCP reply %+v differs from the in-process reply %+v", sr, direct)
	}
	// A message of the wrong type gets an error reply, not a dropped
	// connection.
	var re *protocol.RemoteError
	if _, err := conn.Do(protocol.ClientRequest{RequestID: 1, User: "x", Source: 0, Dest: 1}); !errors.As(err, &re) {
		t.Errorf("expected a RemoteError for the wrong message type, got %v", err)
	}
	if _, err := conn.Do(protocol.ServerQuery{QueryID: 4, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{10}}); err != nil {
		t.Errorf("connection did not survive a refused message: %v", err)
	}
}

// TestServerRetainsNoAliases pins the ownership rules on the serving side:
// the query log keeps its own copy of the endpoint sets (the request's belong
// to its caller, who may reuse them), and a reply
// owns its node arena outright — overwriting it cannot reach the tree cache,
// which answers the same query again correctly.
func TestServerRetainsNoAliases(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig()
	cfg.TreeCache = 8
	srv := MustNew(g, cfg)
	q := protocol.ServerQuery{QueryID: 7, Sources: []roadnet.NodeID{0, 3}, Dests: []roadnet.NodeID{10, 20}}
	first, err := srv.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]roadnet.NodeID, len(first.Paths))
	for i, c := range first.Paths {
		want[i] = append([]roadnet.NodeID(nil), c.Nodes...)
		for k := range c.Nodes {
			c.Nodes[k] = -1 // scribble over the reply's arena
		}
	}
	q.Sources[0], q.Dests[0] = 99, 99 // and over the request's endpoint sets

	log := srv.QueryLog()
	if len(log) != 1 || log[0].Sources[0] != 0 || log[0].Dests[0] != 10 {
		t.Errorf("query log changed with the request buffer: %+v", log)
	}
	again, err := srv.Evaluate(protocol.ServerQuery{QueryID: 8, Sources: []roadnet.NodeID{0, 3}, Dests: []roadnet.NodeID{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if srv.TreeCacheStats().Hits == 0 {
		t.Fatal("second evaluation did not come from the tree cache")
	}
	for i, c := range again.Paths {
		if !reflect.DeepEqual(c.Nodes, want[i]) {
			t.Errorf("candidate %d from the cache = %v, want %v", i, c.Nodes, want[i])
		}
	}
}
