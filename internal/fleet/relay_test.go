package fleet_test

// The relay battery: the router forwards each shard reply to the obfuscator
// as the bytes it arrived as, reading only the reply header. Seen from a
// client dialled to the router's mux handler, every reply must still be the
// shard's own answer, and degraded counting and per-query failure isolation
// must hold as before.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

// squareQueries draws n queries of side×side endpoints.
func squareQueries(g *roadnet.Graph, n, side int, seed int64) []protocol.ServerQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]protocol.ServerQuery, n)
	for i := range qs {
		qs[i].QueryID = uint64(seed)<<8 | uint64(i+1)
		for k := 0; k < side; k++ {
			qs[i].Sources = append(qs[i].Sources, roadnet.NodeID(rng.Intn(g.NumNodes())))
			qs[i].Dests = append(qs[i].Dests, roadnet.NodeID(rng.Intn(g.NumNodes())))
		}
	}
	return qs
}

// asReceived passes a reply through the codec, as a client receives it.
func asReceived(t *testing.T, rep protocol.ServerReply) protocol.ServerReply {
	t.Helper()
	payload, err := protocol.AppendMessage(nil, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := protocol.DecodeMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	return msg.(protocol.ServerReply)
}

// dialRouter connects a client to r's mux handler over net.Pipe.
func dialRouter(t *testing.T, r *fleet.Router, cfg protocol.MuxServerConfig) *protocol.MuxClient {
	t.Helper()
	clientEnd, routerEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.ServeMuxConn(routerEnd, cfg)
	}()
	c, err := protocol.NewMuxClient(clientEnd, protocol.Hello{Role: "obfuscator"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// TestRouterRelaysShardReplies: 3×3 and 16×16 queries, batched and unary,
// sent to the router's mux handler come back exactly as the shards'
// Server.Evaluate answers them.
func TestRouterRelaysShardReplies(t *testing.T) {
	g := testGraph(t, 400, 3101)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: hybridConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.DialRouter(protocol.MuxServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(label string, q protocol.ServerQuery, got protocol.ServerReply) {
		t.Helper()
		for i := 0; i < cl.NumShards(); i++ {
			want, err := cl.Shard(i).Server().Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, asReceived(t, want)) {
				t.Fatalf("%s: relayed reply differs from shard %d's answer", label, i)
			}
		}
	}
	for _, side := range []int{3, 16} {
		qs := squareQueries(g, 6, side, int64(side))
		br, err := c.DoBatch(protocol.BatchQuery{BatchID: uint64(side), Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if br.Errors[i] != "" {
				t.Fatalf("%dx%d batch query %d: %s", side, side, q.QueryID, br.Errors[i])
			}
			check(fmt.Sprintf("%dx%d batch q%d", side, side, q.QueryID), q, br.Replies[i])
		}
		for _, q := range qs {
			res, err := c.Do(q)
			if err != nil {
				t.Fatalf("%dx%d unary query %d: %v", side, side, q.QueryID, err)
			}
			rep, ok := res.(protocol.ServerReply)
			if !ok {
				t.Fatalf("%dx%d unary query %d answered with a %T", side, side, q.QueryID, res)
			}
			check(fmt.Sprintf("%dx%d unary q%d", side, side, q.QueryID), q, rep)
		}
	}
}

// TestRelayedShedRepliesCountDegraded: a query shed at the router's own
// admission watermark is answered distance-only by its shard, and the
// relayed reply still counts on fleet_degraded_replies.
func TestRelayedShedRepliesCountDegraded(t *testing.T) {
	g := testGraph(t, 300, 3201)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Server: hybridConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.DialRouter(protocol.MuxServerConfig{ShedAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qs := squareQueries(g, 4, 3, 3202)
	br, err := c.DoBatch(protocol.BatchQuery{BatchID: 1, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range br.Replies {
		if br.Errors[i] != "" || !rep.Degraded {
			t.Fatalf("shed batch query %d: degraded=%v, error %q", qs[i].QueryID, rep.Degraded, br.Errors[i])
		}
	}
	res, err := c.Do(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.(protocol.ServerReply).Degraded {
		t.Fatal("shed unary query answered with paths")
	}
	if n := cl.Router.Metrics().Counter("fleet_degraded_replies"); n != int64(len(qs)+1) {
		t.Errorf("fleet_degraded_replies = %d after %d shed replies", n, len(qs)+1)
	}
}

// tamperingShard serves queries from a real server but passes every reply
// through tamper before it leaves the shard: a ServerReply is sent as it
// is, a HeldReply as the bytes it holds.
type tamperingShard struct {
	srv    *server.Server
	tamper func(q protocol.ServerQuery, rep protocol.ServerReply) any
}

func (h tamperingShard) HandleMux(msg any, info protocol.ReqInfo) (any, error) {
	q, ok := msg.(protocol.ServerQuery)
	if !ok {
		return h.srv.MuxHandler().HandleMux(msg, info)
	}
	rep, err := h.srv.Evaluate(q)
	if err != nil {
		return nil, err
	}
	return h.tamper(q, rep), nil
}

func (h tamperingShard) HandleMuxBatch(b protocol.BatchQuery, _ protocol.ReqInfo, emit func(protocol.BatchItem)) error {
	for i, q := range b.Queries {
		item := protocol.BatchItem{BatchID: b.BatchID, Index: i}
		rep, err := h.srv.Evaluate(q)
		if err != nil {
			item.Error = err.Error()
			emit(item)
			continue
		}
		switch out := h.tamper(q, rep).(type) {
		case protocol.ServerReply:
			item.Reply = out
		case protocol.HeldReply:
			item.Held = out
		}
		emit(item)
	}
	return nil
}

// tamperedRouter builds a router over two shards of g served through
// tamperingShard.
func tamperedRouter(t *testing.T, g *roadnet.Graph, tamper func(protocol.ServerQuery, protocol.ServerReply) any) *fleet.Router {
	t.Helper()
	var serving sync.WaitGroup
	dialers := make([]fleet.Dialer, 2)
	for i := range dialers {
		h := tamperingShard{srv: server.MustNew(g, hybridConfig()), tamper: tamper}
		dialers[i] = func() (*protocol.MuxClient, error) {
			routerEnd, shardEnd := net.Pipe()
			serving.Add(1)
			go func() {
				defer serving.Done()
				_ = protocol.ServeMuxConn(shardEnd, h, protocol.MuxServerConfig{})
			}()
			c, err := protocol.NewMuxClient(routerEnd, protocol.Hello{Role: "router"})
			if err != nil {
				routerEnd.Close()
			}
			return c, err
		}
	}
	r, err := fleet.New(fleet.Config{RetryBackoff: time.Millisecond}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		serving.Wait()
	})
	return r
}

// TestRelayedMalformedTableFailsOnlyItsQuery: the router does not read a
// reply's table, so a shard's malformed table reaches the client — where it
// fails that one query as a typed decode error, the rest of the batch and
// the connection unharmed. The router's Go API fails it the same way.
func TestRelayedMalformedTableFailsOnlyItsQuery(t *testing.T) {
	g := testGraph(t, 300, 3401)
	qs := squareQueries(g, 3, 3, 3402)
	bad := qs[1].QueryID
	r := tamperedRouter(t, g, func(q protocol.ServerQuery, rep protocol.ServerReply) any {
		if q.QueryID != bad {
			return rep
		}
		payload, err := protocol.AppendMessage(nil, rep, 0)
		if err != nil {
			t.Error(err)
			return rep
		}
		held, _, err := protocol.ReadHeldReply(append(payload, 0)) // a byte past the table
		if err != nil {
			t.Error(err)
			return rep
		}
		return held
	})
	ref := server.MustNew(g, hybridConfig())
	c := dialRouter(t, r, protocol.MuxServerConfig{})

	br, err := c.DoBatch(protocol.BatchQuery{BatchID: 1, Queries: qs})
	if err != nil {
		t.Fatalf("one malformed table failed the batch: %v", err)
	}
	for i, q := range qs {
		if q.QueryID == bad {
			if !strings.Contains(br.Errors[i], protocol.ErrPayloadMalformed.Error()) {
				t.Errorf("malformed table's query: error %q, want a malformed-payload error", br.Errors[i])
			}
			continue
		}
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if br.Errors[i] != "" || !reflect.DeepEqual(br.Replies[i], asReceived(t, want)) {
			t.Errorf("batch query %d next to a malformed table: error %q", q.QueryID, br.Errors[i])
		}
	}
	if _, err := c.Do(qs[1]); !errors.Is(err, protocol.ErrPayloadMalformed) {
		t.Errorf("unary query with a malformed table: %v, want ErrPayloadMalformed", err)
	}
	if _, err := c.Do(qs[0]); err != nil {
		t.Errorf("the client connection did not survive a malformed reply: %v", err)
	}

	if _, err := r.Execute(qs[1]); !errors.Is(err, protocol.ErrPayloadMalformed) {
		t.Errorf("Execute of a malformed table: %v, want ErrPayloadMalformed", err)
	}
	_, errs := r.ExecuteBatch(qs)
	for i, err := range errs {
		if (qs[i].QueryID == bad) != errors.Is(err, protocol.ErrPayloadMalformed) {
			t.Errorf("ExecuteBatch query %d: %v", qs[i].QueryID, err)
		}
	}
}
