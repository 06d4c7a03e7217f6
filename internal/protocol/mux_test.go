package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opaque/internal/roadnet"
)

// muxPair wires a client to a handler over net.Pipe and returns the client.
func muxPair(t *testing.T, h MuxHandler, cfg MuxServerConfig) *MuxClient {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeMuxConn(serverEnd, h, cfg)
	}()
	c, err := NewMuxClient(clientEnd, Hello{Node: "test", Role: "client"})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// echoHandler answers every ServerQuery with a reply echoing the query ID.
var echoHandler = MuxHandlerFunc(func(msg any, info ReqInfo) (any, error) {
	switch m := msg.(type) {
	case ServerQuery:
		return ServerReply{QueryID: m.QueryID, Degraded: info.Shed}, nil
	default:
		return nil, fmt.Errorf("unexpected message %T", msg)
	}
})

func TestMuxHandshakeCarriesIdentity(t *testing.T) {
	cfg := MuxServerConfig{Hello: func() Hello {
		return Hello{Node: "shard-0", Role: "server", Generation: 3, ContentSum: 0xfeed, Cells: 8}
	}}
	c := muxPair(t, echoHandler, cfg)
	peer := c.Peer()
	if peer.Node != "shard-0" || peer.Role != "server" || peer.Generation != 3 || peer.ContentSum != 0xfeed || peer.Cells != 8 {
		t.Errorf("peer hello = %+v", peer)
	}
	if peer.MaxInFlight != DefaultMaxInFlight {
		t.Errorf("advertised admission window %d, want default %d", peer.MaxInFlight, DefaultMaxInFlight)
	}
}

func TestMuxConcurrentUnaryCalls(t *testing.T) {
	c := muxPair(t, echoHandler, MuxServerConfig{})
	const callers = 16
	const perCaller = 25
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				qid := uint64(w*1000 + i)
				res, err := c.Do(ServerQuery{QueryID: qid})
				if err != nil {
					errCh <- err
					return
				}
				rep, ok := res.(ServerReply)
				if !ok || rep.QueryID != qid {
					errCh <- fmt.Errorf("call %d got %+v", qid, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// streamingEcho answers batches item by item, out of order, like the batch
// engine emitting queries as they complete.
type streamingEcho struct{}

func (streamingEcho) HandleMux(msg any, info ReqInfo) (any, error) {
	return echoHandler(msg, info)
}

func (streamingEcho) HandleMuxBatch(b BatchQuery, info ReqInfo, emit func(BatchItem)) error {
	for i := len(b.Queries) - 1; i >= 0; i-- { // deliberately reversed completion order
		if b.Queries[i].QueryID == 666 {
			emit(BatchItem{BatchID: b.BatchID, Index: i, Error: "poisoned query"})
			continue
		}
		emit(BatchItem{BatchID: b.BatchID, Index: i, Reply: ServerReply{QueryID: b.Queries[i].QueryID, Degraded: info.Shed}})
	}
	return nil
}

func TestMuxStreamingBatch(t *testing.T) {
	c := muxPair(t, streamingEcho{}, MuxServerConfig{})
	qs := make([]ServerQuery, 10)
	for i := range qs {
		qs[i] = ServerQuery{QueryID: uint64(100 + i)}
	}
	qs[4].QueryID = 666
	br, err := c.DoBatch(BatchQuery{BatchID: 9, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Replies) != len(qs) || len(br.Errors) != len(qs) {
		t.Fatalf("reply shape %d/%d for %d queries", len(br.Replies), len(br.Errors), len(qs))
	}
	for i := range qs {
		if i == 4 {
			if br.Errors[4] != "poisoned query" {
				t.Errorf("poisoned slot error = %q", br.Errors[4])
			}
			continue
		}
		if br.Errors[i] != "" || br.Replies[i].QueryID != qs[i].QueryID {
			t.Errorf("slot %d: reply %+v err %q", i, br.Replies[i], br.Errors[i])
		}
	}
}

func TestMuxRemoteError(t *testing.T) {
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	c := muxPair(t, h, MuxServerConfig{})
	_, err := c.Do(ServerQuery{QueryID: 1})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.Msg != "handler exploded" {
		t.Errorf("remote message = %q", re.Msg)
	}
	// The connection survives a handler error.
	if res, err := c.Do(ServerQuery{QueryID: 2}); err == nil {
		t.Fatalf("handler always fails, got %+v", res)
	} else if !errors.As(err, &re) {
		t.Fatalf("second call: err = %v, want *RemoteError (connection should stay usable)", err)
	}
}

func TestMuxShedWatermark(t *testing.T) {
	// ShedAt 1: every request counts itself, so everything sheds.
	c := muxPair(t, echoHandler, MuxServerConfig{ShedAt: 1})
	res, err := c.Do(ServerQuery{QueryID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.(ServerReply).Degraded {
		t.Error("ShedAt=1 did not shed a lone request")
	}

	// ShedAt 0 disables shedding even under concurrency.
	c2 := muxPair(t, echoHandler, MuxServerConfig{})
	var wg sync.WaitGroup
	var degraded atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c2.Do(ServerQuery{QueryID: uint64(i)})
			if err == nil && res.(ServerReply).Degraded {
				degraded.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if degraded.Load() != 0 {
		t.Errorf("%d replies degraded with shedding disabled", degraded.Load())
	}
}

func TestMuxBackpressureBounds(t *testing.T) {
	// MaxInFlight 2 with a gated handler: the third request must not start
	// until a slot frees.
	gate := make(chan struct{})
	var running, peak atomic.Int64
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		running.Add(-1)
		return ServerReply{QueryID: msg.(ServerQuery).QueryID}, nil
	})
	c := muxPair(t, h, MuxServerConfig{MaxInFlight: 2})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = c.Do(ServerQuery{QueryID: uint64(i)})
		}(i)
	}
	// Let requests pile up against the admission window, then release them.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("admission window of 2 admitted %d concurrent requests", p)
	}
}

func TestMuxClosedConnectionFailsCalls(t *testing.T) {
	block := make(chan struct{})
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		<-block
		return ServerReply{}, nil
	})
	c := muxPair(t, h, MuxServerConfig{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Do(ServerQuery{QueryID: 1})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	close(block)
	if err := <-errCh; !errors.Is(err, ErrMuxClosed) {
		t.Errorf("pending call after Close: err = %v, want ErrMuxClosed", err)
	}
	if _, err := c.Do(ServerQuery{QueryID: 2}); !errors.Is(err, ErrMuxClosed) {
		t.Errorf("call on closed client: err = %v, want ErrMuxClosed", err)
	}
	if c.Err() == nil {
		t.Error("Err() nil after Close")
	}
}

func TestMuxWeightUpdateRoundTrip(t *testing.T) {
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		wu, ok := msg.(WeightUpdate)
		if !ok {
			return nil, fmt.Errorf("unexpected %T", msg)
		}
		return WeightUpdateAck{UpdateID: wu.UpdateID, Generation: 2, ContentSum: 0xbeef}, nil
	})
	c := muxPair(t, h, MuxServerConfig{})
	res, err := c.Do(WeightUpdate{UpdateID: 11, Changes: []roadnet.ArcWeightChange{{From: 1, To: 2, NewCost: 3.5}}})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := res.(WeightUpdateAck)
	if !ok || ack.UpdateID != 11 || ack.Generation != 2 || ack.ContentSum != 0xbeef {
		t.Errorf("ack = %+v", res)
	}
}

// TestMuxPing pins the heartbeat probe: a FramePing comes back as a pong
// carrying the peer's *current* Hello — so a probe observes generation and
// checksum changes without a reconnect — and refreshes Peer().
func TestMuxPing(t *testing.T) {
	var gen atomic.Uint64
	gen.Store(1)
	cfg := MuxServerConfig{Hello: func() Hello {
		return Hello{Node: "shard-0", Role: "server", Generation: gen.Load(), ContentSum: gen.Load() * 0x1111}
	}}
	c := muxPair(t, echoHandler, cfg)
	if g := c.Peer().Generation; g != 1 {
		t.Fatalf("handshake generation = %d, want 1", g)
	}
	gen.Store(5)
	h, err := c.Ping(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if h.Generation != 5 || h.ContentSum != 5*0x1111 {
		t.Errorf("pong hello = %+v, want the refreshed identity", h)
	}
	if g := c.Peer().Generation; g != 5 {
		t.Errorf("Peer().Generation = %d after pong, want 5", g)
	}
}

// TestMuxPingWhileSaturated pins the liveness property the health prober
// depends on: pings are answered before the admission slot gate, so a peer
// whose every slot is occupied by slow work still pongs — saturation is not
// death.
func TestMuxPingWhileSaturated(t *testing.T) {
	gate := make(chan struct{})
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		<-gate
		return ServerReply{QueryID: msg.(ServerQuery).QueryID}, nil
	})
	c := muxPair(t, h, MuxServerConfig{MaxInFlight: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Do(ServerQuery{QueryID: 1})
	}()
	time.Sleep(30 * time.Millisecond) // let the request occupy the only slot
	if _, err := c.Ping(time.Now().Add(2 * time.Second)); err != nil {
		t.Errorf("ping against a saturated peer: %v", err)
	}
	close(gate)
	wg.Wait()
}

// TestMuxDeadlineClientTimeout pins the client half of deadline propagation:
// a call whose deadline passes with no reply fails with a deadline error and
// leaves the connection usable — an expired request is abandoned, not a
// connection failure.
func TestMuxDeadlineClientTimeout(t *testing.T) {
	gate := make(chan struct{})
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		q := msg.(ServerQuery)
		if q.QueryID == 1 {
			<-gate
		}
		return ServerReply{QueryID: q.QueryID}, nil
	})
	c := muxPair(t, h, MuxServerConfig{})
	_, err := c.DoDeadline(ServerQuery{QueryID: 1}, time.Now().Add(40*time.Millisecond))
	if err == nil {
		t.Fatal("stalled call beat its deadline")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("stalled call error = %v, want a deadline error", err)
	}
	close(gate)
	res, err := c.Do(ServerQuery{QueryID: 2})
	if err != nil {
		t.Fatalf("call after a deadline miss: %v", err)
	}
	if rep := res.(ServerReply); rep.QueryID != 2 {
		t.Errorf("reply %+v after deadline miss", rep)
	}
}

// TestMuxDeadlineServerDrop pins the server half: work whose deadline
// expired while queued behind the admission gate is dropped without
// invoking the handler — the serving side never evaluates an answer nobody
// is waiting for.
func TestMuxDeadlineServerDrop(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	h := MuxHandlerFunc(func(msg any, _ ReqInfo) (any, error) {
		calls.Add(1)
		<-gate
		return ServerReply{QueryID: msg.(ServerQuery).QueryID}, nil
	})
	c := muxPair(t, h, MuxServerConfig{MaxInFlight: 1})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = c.Do(ServerQuery{QueryID: 1}) // occupies the only slot
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		defer wg.Done()
		// Queued behind the slot; expires before the slot frees.
		_, err := c.DoDeadline(ServerQuery{QueryID: 2}, time.Now().Add(40*time.Millisecond))
		if !IsDeadlineExceeded(err) {
			t.Errorf("queued-past-deadline call error = %v, want a deadline error", err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let query 2 expire while queued
	close(gate)
	wg.Wait()
	// Give the dropped request's worker a beat, then demand the handler ran
	// exactly once: query 2 must have been dropped at the re-check.
	time.Sleep(50 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1 (expired work must be dropped)", n)
	}
}

// rawMuxPeer handshakes with a ServeMuxConn by hand and returns the raw
// connection, for tests that put bytes on the wire no MuxClient would.
func rawMuxPeer(t *testing.T, h MuxHandler) net.Conn {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeMuxConn(serverEnd, h, MuxServerConfig{})
	}()
	t.Cleanup(func() {
		clientEnd.Close()
		<-done
	})
	hello, err := AppendMessage(nil, Hello{Role: "client"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(clientEnd, Frame{Type: FrameHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(clientEnd); err != nil || f.Type != FrameWelcome {
		t.Fatalf("welcome: frame %+v, err %v", f, err)
	}
	return clientEnd
}

// readReply reads one frame and decodes its payload.
func readReply(t *testing.T, conn net.Conn) (Frame, any) {
	t.Helper()
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading reply frame: %v", err)
	}
	msg, _, err := DecodeMessage(f.Payload)
	if err != nil {
		t.Fatalf("decoding %d frame: %v", f.Type, err)
	}
	return f, msg
}

// TestMalformedPayloadFailsOneRequestNotTheConnection: a FrameMsg whose body
// is garbage is answered with FrameErr for its request ID, and a good call
// already in flight on the same connection still completes.
func TestMalformedPayloadFailsOneRequestNotTheConnection(t *testing.T) {
	release := make(chan struct{})
	h := MuxHandlerFunc(func(msg any, info ReqInfo) (any, error) {
		<-release
		return echoHandler(msg, info)
	})
	conn := rawMuxPeer(t, h)
	good, err := AppendMessage(nil, ServerQuery{QueryID: 41}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: FrameMsg, ID: 1, Payload: good}); err != nil {
		t.Fatal(err)
	}
	// Valid header, then a body that is no ServerQuery at all; and a payload
	// too short to even carry a header.
	garbage := append(append([]byte{}, good[:payloadHeaderLen]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	for id, payload := range map[uint64][]byte{2: garbage, 3: {0x01}} {
		if err := WriteFrame(conn, Frame{Type: FrameMsg, ID: id, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, msg := readReply(t, conn)
		if er, ok := msg.(ErrorReply); f.Type != FrameErr || f.ID != id || !ok || er.Message == "" {
			t.Fatalf("garbage request %d answered with frame %d for id %d carrying %+v, want FrameErr", id, f.Type, f.ID, msg)
		}
	}
	close(release)
	f, msg := readReply(t, conn)
	if rep, ok := msg.(ServerReply); f.Type != FrameMsg || f.ID != 1 || !ok || rep.QueryID != 41 {
		t.Fatalf("concurrent good call answered with frame %d for id %d carrying %+v", f.Type, f.ID, msg)
	}
}

// TestExpiredDeadlineRefusedWithoutDecode: the serving side reads the
// deadline from the payload header; expired work is refused before its body
// is looked at — here the body would not even decode.
func TestExpiredDeadlineRefusedWithoutDecode(t *testing.T) {
	var calls atomic.Int64
	conn := rawMuxPeer(t, MuxHandlerFunc(func(msg any, info ReqInfo) (any, error) {
		calls.Add(1)
		return echoHandler(msg, info)
	}))
	payload, err := AppendMessage(nil, ServerQuery{QueryID: 1}, time.Now().Add(-time.Second).UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload[:payloadHeaderLen], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if err := WriteFrame(conn, Frame{Type: FrameMsg, ID: 9, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, msg := readReply(t, conn)
	if er, ok := msg.(ErrorReply); f.Type != FrameErr || f.ID != 9 || !ok || er.Message != DeadlineExceededMsg {
		t.Fatalf("expired request answered with frame %d carrying %+v, want the deadline refusal", f.Type, msg)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("handler ran %d times for expired work", n)
	}
}

// TestHandshakeRefusesForeignCodecVersion: peers speaking different codec
// versions refuse each other with a typed ErrHandshake on both ends.
func TestHandshakeRefusesForeignCodecVersion(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeMuxConn(serverEnd, echoHandler, MuxServerConfig{}) }()
	hello, err := AppendMessage(nil, Hello{Role: "client"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hello[1] = CodecVersion - 1 // a peer still speaking the previous version
	if err := WriteFrame(clientEnd, Frame{Type: FrameHello, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	// The welcome still arrives, so the dialling side can see which version
	// the accepting side speaks.
	if f, err := ReadFrame(clientEnd); err != nil || f.Type != FrameWelcome || f.Payload[1] != CodecVersion {
		t.Fatalf("welcome: frame %+v, err %v", f, err)
	}
	if err := <-served; !errors.Is(err, ErrHandshake) {
		t.Errorf("serving side: err = %v, want ErrHandshake", err)
	}
	clientEnd.Close()

	// And the dialling side refuses a welcome of another version.
	clientEnd, serverEnd = net.Pipe()
	go func() {
		defer serverEnd.Close()
		if _, err := ReadFrame(serverEnd); err != nil {
			return
		}
		welcome, _ := AppendMessage(nil, Hello{Role: "server"}, 0)
		welcome[1] = CodecVersion + 1
		_ = WriteFrame(serverEnd, Frame{Type: FrameWelcome, Payload: welcome})
	}()
	if _, err := NewMuxClient(clientEnd, Hello{Role: "client"}); !errors.Is(err, ErrHandshake) {
		t.Errorf("dialling side: err = %v, want ErrHandshake", err)
	}
	clientEnd.Close()
}

// TestHandlerMayReturnTheSameReplyForever: the transport only reads what a
// handler hands it — one reply value, returned to many concurrent calls,
// arrives intact every time and is never modified.
func TestHandlerMayReturnTheSameReplyForever(t *testing.T) {
	shared := ServerReply{QueryID: 7, ContentSum: 1, Paths: []CandidatePath{
		{Source: 1, Dest: 5, Found: true, Cost: 3, Nodes: []roadnet.NodeID{1, 2, 5}},
		{Source: 1, Dest: 6, Found: true, Cost: 4, Nodes: []roadnet.NodeID{1, 2, 6}},
	}}
	want := ServerReply{QueryID: 7, ContentSum: 1, Paths: []CandidatePath{
		{Source: 1, Dest: 5, Found: true, Cost: 3, Nodes: []roadnet.NodeID{1, 2, 5}},
		{Source: 1, Dest: 6, Found: true, Cost: 4, Nodes: []roadnet.NodeID{1, 2, 6}},
	}}
	c := muxPair(t, MuxHandlerFunc(func(any, ReqInfo) (any, error) { return shared, nil }), MuxServerConfig{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := c.Do(ServerQuery{QueryID: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want) {
					t.Errorf("echoed reply arrived as %+v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(shared, want) {
		t.Errorf("the transport modified the handler's value: %+v", shared)
	}
}

// scriptedServer handshakes a MuxClient with a serving side the test writes
// frame by frame: script runs on the raw server end once the welcome is out.
func scriptedServer(t *testing.T, script func(conn net.Conn) error) *MuxClient {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer serverEnd.Close()
		if f, err := ReadFrame(serverEnd); err != nil || f.Type != FrameHello {
			t.Errorf("hello: frame %+v, err %v", f, err)
			return
		}
		welcome, err := AppendMessage(nil, Hello{Role: "server"}, 0)
		if err == nil {
			err = WriteFrame(serverEnd, Frame{Type: FrameWelcome, Payload: welcome})
		}
		if err == nil {
			err = script(serverEnd)
		}
		if err != nil {
			t.Errorf("scripted server: %v", err)
		}
	}()
	c, err := NewMuxClient(clientEnd, Hello{Role: "client"})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// readRequest reads one request frame and decodes its payload.
func readRequest(conn net.Conn) (Frame, any, error) {
	f, err := ReadFrame(conn)
	if err != nil {
		return Frame{}, nil, err
	}
	msg, _, err := DecodeMessage(f.Payload)
	return f, msg, err
}

// TestUndecodableBatchItemFailsItsOwnQuery: a streamed item whose BatchID,
// Index and Error read but whose reply table does not decode fails its own
// query — a typed decode error in its Errors slot — while the items around it
// land and the connection keeps serving; only an item that cannot be placed
// in the batch fails the batch.
func TestUndecodableBatchItemFailsItsOwnQuery(t *testing.T) {
	reply := func(q ServerQuery) ServerReply {
		return ServerReply{QueryID: q.QueryID, Paths: []CandidatePath{
			{Source: q.Sources[0], Dest: q.Dests[0], Found: true, Cost: 4, Nodes: []roadnet.NodeID{q.Sources[0], 9, q.Dests[0]}},
		}}
	}
	c := scriptedServer(t, func(conn net.Conn) error {
		f, msg, err := readRequest(conn)
		if err != nil {
			return err
		}
		b, ok := msg.(BatchQuery)
		if !ok {
			return fmt.Errorf("first request is a %T", msg)
		}
		items := make([][]byte, len(b.Queries))
		for i, q := range b.Queries {
			if items[i], err = AppendMessage(nil, BatchItem{BatchID: b.BatchID, Index: i, Reply: reply(q)}, 0); err != nil {
				return err
			}
		}
		items[1] = append(items[1], 0) // the table runs on past its end: malformed
		for _, item := range items {
			if err := WriteFrame(conn, Frame{Type: FrameStreamItem, ID: f.ID, Payload: item}); err != nil {
				return err
			}
		}
		if err := WriteFrame(conn, Frame{Type: FrameStreamEnd, ID: f.ID}); err != nil {
			return err
		}

		// A later unary call on the same connection.
		if f, msg, err = readRequest(conn); err != nil {
			return err
		}
		out, err := AppendMessage(nil, reply(msg.(ServerQuery)), 0)
		if err != nil {
			return err
		}
		if err := WriteFrame(conn, Frame{Type: FrameMsg, ID: f.ID, Payload: out}); err != nil {
			return err
		}

		// A batch whose item has an unreadable index.
		if f, _, err = readRequest(conn); err != nil {
			return err
		}
		bad := append([]byte{byte(TypeBatchItem), CodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1}, bytes.Repeat([]byte{0xff}, 11)...)
		// The client gives up on the batch here and may close the connection
		// at once, so nothing more is written.
		return WriteFrame(conn, Frame{Type: FrameStreamItem, ID: f.ID, Payload: bad})
	})

	qs := []ServerQuery{
		{QueryID: 1, Sources: []roadnet.NodeID{1}, Dests: []roadnet.NodeID{2}},
		{QueryID: 2, Sources: []roadnet.NodeID{3}, Dests: []roadnet.NodeID{4}},
		{QueryID: 3, Sources: []roadnet.NodeID{5}, Dests: []roadnet.NodeID{6}},
	}
	br, err := c.DoBatch(BatchQuery{BatchID: 4, Queries: qs})
	if err != nil {
		t.Fatalf("one undecodable item failed the whole batch: %v", err)
	}
	for _, i := range []int{0, 2} {
		if br.Errors[i] != "" || !reflect.DeepEqual(br.Replies[i], reply(qs[i])) {
			t.Errorf("slot %d: reply %+v, error %q", i, br.Replies[i], br.Errors[i])
		}
	}
	if !strings.Contains(br.Errors[1], ErrPayloadMalformed.Error()) || br.Replies[1].Paths != nil {
		t.Errorf("corrupt slot: reply %+v, error %q, want the malformed-payload error", br.Replies[1], br.Errors[1])
	}

	res, err := c.Do(qs[0])
	if err != nil || !reflect.DeepEqual(res, reply(qs[0])) {
		t.Fatalf("the connection no longer serves: %+v, %v", res, err)
	}

	if _, err := c.DoBatch(BatchQuery{BatchID: 5, Queries: qs}); !errors.Is(err, ErrPayloadMalformed) {
		t.Fatalf("an item with an unreadable index: %v, want the batch failed as malformed", err)
	}
}

// TestUnaryCallRegistersOneSlot pins the per-call footprint: a unary call's
// event channel holds exactly the one frame that can answer it.
func TestUnaryCallRegistersOneSlot(t *testing.T) {
	c := muxPair(t, echoHandler, MuxServerConfig{})
	_, events, err := c.register(1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(events) != 1 {
		t.Errorf("unary call registered %d event slots, want 1", cap(events))
	}
}

// FuzzMuxHello hammers the handshake/pong decoder with arbitrary payloads:
// decodeHello must never panic, and any hello it accepts must re-encode to
// the same bytes' meaning.
func FuzzMuxHello(f *testing.F) {
	for _, h := range []Hello{
		{},
		{Node: "shard-0", Role: "server", Generation: 3, ContentSum: 0xfeed, Cells: 8, MaxInFlight: 64},
		{Node: "router", Role: "router"},
	} {
		payload, err := AppendMessage(nil, h, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		checkDecoded(t, data, h)
	})
}
