package obfsvc

import (
	"errors"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := gen.DefaultNetworkConfig()
	cfg.Nodes = 800
	cfg.Seed = 81
	return gen.MustGenerate(cfg)
}

func testService(t testing.TB, g *roadnet.Graph, mode obfuscate.Mode, window time.Duration) (*Service, *server.Server) {
	t.Helper()
	srv := server.MustNew(g, server.DefaultConfig())
	cfg := DefaultConfig()
	cfg.BatchWindow = window
	cfg.Obfuscation.Mode = mode
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 83)
	svc := MustNew(g, ExecutorFunc(srv.Evaluate), cfg)
	return svc, srv
}

func testRequests(t testing.TB, g *roadnet.Graph, n int) []obfuscate.Request {
	t.Helper()
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: n, Seed: 85})
	out := make([]obfuscate.Request, n)
	for i, p := range wl {
		out[i] = obfuscate.Request{User: obfuscate.UserID(string(rune('a' + i%26))), Source: p.Source, Dest: p.Dest, FS: 2, FT: 3}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, nil, DefaultConfig()); err == nil {
		t.Error("nil executor accepted")
	}
	cfg := DefaultConfig()
	cfg.Obfuscation.Selector = nil
	if _, err := New(g, ExecutorFunc(func(protocol.ServerQuery) (protocol.ServerReply, error) { return protocol.ServerReply{}, nil }), cfg); err == nil {
		t.Error("config without selector accepted")
	}
}

func TestProcessBatchReturnsExactPaths(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []obfuscate.Mode{obfuscate.Independent, obfuscate.Shared} {
		svc, srv := testService(t, g, mode, 0)
		batch := testRequests(t, g, 8)
		results, err := svc.ProcessBatch(batch)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(results) != len(batch) {
			t.Fatalf("%s: %d results for %d requests", mode, len(results), len(batch))
		}
		acc := storage.NewMemoryGraph(g)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: request %d error: %v", mode, i, r.Err)
			}
			if !r.Found {
				t.Fatalf("%s: request %d path not found", mode, i)
			}
			truth, _, err := search.Dijkstra(acc, batch[i].Source, batch[i].Dest)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(truth.Cost-r.Path.Cost) > 1e-6 {
				t.Errorf("%s: request %d path cost %v, shortest path costs %v", mode, i, r.Path.Cost, truth.Cost)
			}
			if r.Path.Source() != batch[i].Source || r.Path.Dest() != batch[i].Dest {
				t.Errorf("%s: request %d path endpoints %d->%d, want %d->%d", mode, i, r.Path.Source(), r.Path.Dest(), batch[i].Source, batch[i].Dest)
			}
		}
		// The server must never have seen a bare true pair as a whole query:
		// every logged query must be at least fS x fT.
		log := srv.QueryLog()
		if len(log) == 0 {
			t.Errorf("%s: the server logged no query", mode)
		}
		for _, entry := range log {
			if len(entry.Sources) < 2 || len(entry.Dests) < 3 {
				t.Errorf("%s: server saw a query with |S|=%d |T|=%d, below the requested protection", mode, len(entry.Sources), len(entry.Dests))
			}
		}
		st := svc.Stats()
		if st.Requests != int64(len(batch)) || st.Batches != 1 || st.ObfuscatedSent == 0 {
			t.Errorf("%s: stats = %+v", mode, st)
		}
	}
}

func TestProcessBatchEmpty(t *testing.T) {
	svc, _ := testService(t, testGraph(t), obfuscate.Shared, 0)
	if _, err := svc.ProcessBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestProcessBatchServerError(t *testing.T) {
	g := testGraph(t)
	boom := errors.New("server down")
	cfg := DefaultConfig()
	cfg.BatchWindow = 0
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 83)
	svc := MustNew(g, ExecutorFunc(func(protocol.ServerQuery) (protocol.ServerReply, error) {
		return protocol.ServerReply{}, boom
	}), cfg)
	batch := testRequests(t, g, 3)
	results, err := svc.ProcessBatch(batch)
	if err != nil {
		t.Fatalf("batch-level error: %v", err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("request %d should carry the server error", i)
		}
	}
}

func TestSubmitBatchingWindow(t *testing.T) {
	g := testGraph(t)
	svc, srv := testService(t, g, obfuscate.Shared, 30*time.Millisecond)
	batch := testRequests(t, g, 6)
	var chans []<-chan ClientResult
	for _, req := range batch {
		chans = append(chans, svc.Submit(req))
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("request %d: %v", i, res.Err)
			}
			if !res.Found {
				t.Errorf("request %d not found", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d timed out", i)
		}
	}
	// All six requests arrived inside one window, so the obfuscator should
	// have sent far fewer than six queries to the server.
	if _, n := srv.TotalStats(); n >= 6 {
		t.Errorf("server processed %d obfuscated queries for 6 batched requests; expected sharing", n)
	}
}

func TestSubmitInvalidRequestFailsFast(t *testing.T) {
	g := testGraph(t)
	svc, _ := testService(t, g, obfuscate.Shared, time.Hour) // window never fires
	res := <-svc.Submit(obfuscate.Request{User: "", Source: 0, Dest: 1})
	if res.Err == nil {
		t.Error("invalid request did not fail")
	}
}

func TestSubmitMaxBatchFlushesImmediately(t *testing.T) {
	g := testGraph(t)
	srv := server.MustNew(g, server.DefaultConfig())
	cfg := DefaultConfig()
	cfg.BatchWindow = time.Hour // would never fire on its own
	cfg.MaxBatch = 2
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 87)
	svc := MustNew(g, ExecutorFunc(srv.Evaluate), cfg)
	batch := testRequests(t, g, 2)
	var wg sync.WaitGroup
	for _, req := range batch {
		wg.Add(1)
		go func(r obfuscate.Request) {
			defer wg.Done()
			select {
			case res := <-svc.Submit(r):
				if res.Err != nil {
					t.Errorf("submit: %v", res.Err)
				}
			case <-time.After(10 * time.Second):
				t.Error("submit timed out despite MaxBatch flush")
			}
		}(req)
	}
	wg.Wait()
}

func TestFlushProcessesPending(t *testing.T) {
	g := testGraph(t)
	svc, _ := testService(t, g, obfuscate.Shared, time.Hour)
	req := testRequests(t, g, 1)[0]
	ch := svc.Submit(req)
	svc.Flush()
	select {
	case res := <-ch:
		if res.Err != nil || !res.Found {
			t.Errorf("flushed result = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not release the pending request")
	}
}

func TestMuxHandlerOverTCP(t *testing.T) {
	g := testGraph(t)
	svc, _ := testService(t, g, obfuscate.Independent, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = svc.ServeMux(ln, protocol.MuxServerConfig{}) }()
	defer ln.Close()

	conn, err := protocol.DialMux(ln.Addr().String(), protocol.Hello{Role: "client"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wl := gen.MustGenerateWorkload(g, gen.WorkloadConfig{Kind: gen.Uniform, Queries: 1, Seed: 90})
	reply, err := conn.Do(protocol.ClientRequest{RequestID: 9, User: "tcp-user", Source: wl[0].Source, Dest: wl[0].Dest, FS: 2, FT: 2})
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := reply.(protocol.ClientReply)
	if !ok {
		t.Fatalf("reply type %T", reply)
	}
	if !cr.Found || cr.RequestID != 9 || len(cr.Path) == 0 {
		t.Errorf("reply = %+v", cr)
	}
	// Anything but a client request is refused, on a connection that stays up.
	var re *protocol.RemoteError
	if _, err := conn.Do(protocol.ServerQuery{QueryID: 1}); !errors.As(err, &re) {
		t.Errorf("server query to the obfuscator: err = %v, want a RemoteError", err)
	}
}

func TestMuxExecutor(t *testing.T) {
	g := testGraph(t)
	srv := server.MustNew(g, server.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeMux(ln, protocol.MuxServerConfig{}) }()
	defer ln.Close()
	exec, err := DialMuxExecutor(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	reply, err := exec.Execute(protocol.ServerQuery{QueryID: 2, Sources: []roadnet.NodeID{0}, Dests: []roadnet.NodeID{5}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.QueryID != 2 || len(reply.Paths) != 1 {
		t.Errorf("mux executor reply = %+v", reply)
	}
	// A whole plan travels as one streaming batch; a malformed query fails
	// in its own slot.
	replies, errs := exec.ExecuteBatch([]protocol.ServerQuery{
		{QueryID: 3, Sources: []roadnet.NodeID{0, 1}, Dests: []roadnet.NodeID{5, 6}},
		{QueryID: 4, Sources: []roadnet.NodeID{0}},
	})
	if errs[0] != nil || len(replies[0].Paths) != 4 {
		t.Errorf("batch slot 0: reply %+v, err %v", replies[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("batch slot 1: a query without destinations succeeded")
	}
}

// TestExtractedPathOwnsItsMemory pins the ownership rule at the filter: the
// path a client receives is an exactly-sized copy of its cell, so scribbling
// over the reply's node arena after Extract cannot reach it — and the reply,
// arena and all, is garbage the moment the batch is answered.
func TestExtractedPathOwnsItsMemory(t *testing.T) {
	g := testGraph(t)
	srv := server.MustNew(g, server.DefaultConfig())
	var arenas [][]roadnet.NodeID
	exec := ExecutorFunc(func(q protocol.ServerQuery) (protocol.ServerReply, error) {
		// What a networked executor hands back: a reply decoded from the wire,
		// every path a window of one arena.
		reply, err := srv.Evaluate(q)
		if err != nil {
			return reply, err
		}
		payload, err := protocol.AppendMessage(nil, reply, 0)
		if err != nil {
			return reply, err
		}
		msg, _, err := protocol.DecodeMessage(payload)
		if err != nil {
			return reply, err
		}
		decoded := msg.(protocol.ServerReply)
		for _, c := range decoded.Paths {
			if len(c.Nodes) > 0 {
				// Capacity is clipped per path; recover the window to scribble on.
				arenas = append(arenas, c.Nodes)
			}
		}
		return decoded, nil
	})
	cfg := DefaultConfig()
	cfg.Obfuscation.Mode = obfuscate.Independent
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	cfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(0.02*extent, 0.2*extent, 92)
	svc := MustNew(g, exec, cfg)

	batch := testRequests(t, g, 3)
	results, err := svc.ProcessBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]roadnet.NodeID, len(results))
	for i, res := range results {
		if res.Err != nil || !res.Found {
			t.Fatalf("request %d: %+v", i, res)
		}
		want[i] = append([]roadnet.NodeID(nil), res.Path.Nodes...)
		if cap(res.Path.Nodes) != len(res.Path.Nodes) {
			t.Errorf("request %d: extracted path has cap %d for len %d", i, cap(res.Path.Nodes), len(res.Path.Nodes))
		}
	}
	for _, window := range arenas {
		for k := range window {
			window[k] = -1
		}
	}
	for i, res := range results {
		if !reflect.DeepEqual(res.Path.Nodes, want[i]) {
			t.Errorf("request %d: the client's path changed when the reply arena was overwritten", i)
		}
		if res.Path.Nodes[0] != batch[i].Source || res.Path.Nodes[len(res.Path.Nodes)-1] != batch[i].Dest {
			t.Errorf("request %d: path does not run %d→%d", i, batch[i].Source, batch[i].Dest)
		}
	}
}
