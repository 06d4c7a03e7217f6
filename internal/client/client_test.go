package client

import (
	"math"
	"net"
	"testing"

	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

func testSetup(t testing.TB) (*roadnet.Graph, *obfsvc.Service, *server.Server) {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 700
	cfg.Seed = 91
	g := gen.MustGenerate(cfg)
	srv := server.MustNew(g, server.DefaultConfig())
	svcCfg := obfsvc.DefaultConfig()
	svcCfg.BatchWindow = 0
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	svcCfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 93)
	svc := obfsvc.MustNew(g, obfsvc.ExecutorFunc(srv.Evaluate), svcCfg)
	return g, svc, srv
}

func TestNewLocalValidation(t *testing.T) {
	_, svc, _ := testSetup(t)
	if _, err := NewLocal("", svc); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := NewLocal("alice", nil); err == nil {
		t.Error("nil service accepted")
	}
	c := MustNewLocal("alice", svc, WithProtection(3, 5))
	if fs, ft := c.Protection(); fs != 3 || ft != 5 {
		t.Errorf("protection = %d/%d, want 3/5", fs, ft)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close on local client: %v", err)
	}
}

func TestLocalClientQuery(t *testing.T) {
	g, svc, srv := testSetup(t)
	c := MustNewLocal("alice", svc, WithProtection(2, 3))
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 5, Seed: 95})
	acc := storage.NewMemoryGraph(g)
	for _, pr := range wl {
		res, err := c.Query(pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("no path for %d->%d", pr.Source, pr.Dest)
		}
		truth, _, err := search.Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(truth.Cost-res.Path.Cost) > 1e-6 {
			t.Errorf("client got cost %v, shortest is %v", res.Path.Cost, truth.Cost)
		}
	}
	// The server only ever saw obfuscated queries with the requested sizes.
	for _, entry := range srv.QueryLog() {
		if len(entry.Sources) < 2 || len(entry.Dests) < 3 {
			t.Errorf("server saw an under-protected query |S|=%d |T|=%d", len(entry.Sources), len(entry.Dests))
		}
	}
}

func TestRemoteClientOverTCP(t *testing.T) {
	g, svc, _ := testSetup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.ServeMux(ln, protocol.MuxServerConfig{}) }()
	defer ln.Close()

	c, err := Dial("bob", ln.Addr().String(), WithProtection(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Several queries over the one connection.
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 3, Seed: 96})
	acc := storage.NewMemoryGraph(g)
	for _, pr := range wl {
		res, err := c.Query(pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Path.Empty() {
			t.Fatalf("remote query result = %+v", res)
		}
		truth, _, err := search.Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(truth.Cost-res.Path.Cost) > 1e-6 {
			t.Errorf("remote client cost %v, shortest %v", res.Path.Cost, truth.Cost)
		}
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("", "127.0.0.1:1"); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := Dial("alice", "127.0.0.1:1"); err == nil {
		t.Error("dial to a closed port succeeded")
	}
}

func TestDirectClient(t *testing.T) {
	g, _, srv := testSetup(t)
	if _, err := NewDirect(nil); err == nil {
		t.Error("nil executor accepted")
	}
	c := MustNewDirect(obfsvc.ExecutorFunc(srv.Evaluate))
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 3, Seed: 97})
	acc := storage.NewMemoryGraph(g)
	for _, pr := range wl {
		res, err := c.Query(pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		truth, _, err := search.Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != !truth.Empty() {
			t.Errorf("reachability mismatch for %d->%d", pr.Source, pr.Dest)
		}
		if res.Found && math.Abs(truth.Cost-res.Path.Cost) > 1e-6 {
			t.Errorf("direct client cost %v, shortest %v", res.Path.Cost, truth.Cost)
		}
	}
	// The direct client exposes the true pair to the server (breach = 1).
	found := false
	for _, entry := range srv.QueryLog() {
		if len(entry.Sources) == 1 && len(entry.Dests) == 1 {
			found = true
		}
	}
	if !found {
		t.Error("direct queries should appear in the log as bare 1x1 queries")
	}
}

// TestDirectClientOverMux: the direct client reads its one cell through the
// reply accessor, so it works over the networked executor, whose replies hold
// the server's table in its wire form.
func TestDirectClientOverMux(t *testing.T) {
	g, _, srv := testSetup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeMux(ln, protocol.MuxServerConfig{}) }()
	defer ln.Close()
	exec, err := obfsvc.DialMuxExecutor(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	c := MustNewDirect(exec)
	acc := storage.NewMemoryGraph(g)
	for _, pr := range gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 3, Seed: 98}) {
		res, err := c.Query(pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		truth, _, err := search.Dijkstra(acc, pr.Source, pr.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || math.Abs(truth.Cost-res.Path.Cost) > 1e-6 || res.Path.Source() != pr.Source || res.Path.Dest() != pr.Dest {
			t.Errorf("%d->%d over mux: found %v, path %v (cost %v); shortest costs %v", pr.Source, pr.Dest, res.Found, res.Path.Nodes, res.Path.Cost, truth.Cost)
		}
	}
}

func TestQueryNotConnected(t *testing.T) {
	var c Client
	if _, err := c.Query(0, 1); err == nil {
		t.Error("query on an unconnected client succeeded")
	}
}
