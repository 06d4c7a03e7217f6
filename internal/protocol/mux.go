package protocol

// This file is the multiplexed transport every networked hop runs on: one
// persistent connection carries many concurrent requests as OPMX1 frames
// (frame.go), correlated by request ID. On top of the frame layer it
// provides
//
//   - a Hello/Welcome handshake: the dialling side announces itself, the
//     accepting side answers with its identity, data generation, weight
//     content checksum and partition shape — what a fleet router needs to
//     admit a shard;
//   - streaming batch replies: a BatchQuery is answered as one
//     FrameStreamItem per query, emitted as each query completes, closed by
//     FrameStreamEnd — the client reassembles the BatchReply;
//   - per-connection admission control: at most MaxInFlight requests run
//     concurrently (further frames stay unread, pushing back on the peer via
//     the transport), and above the ShedAt watermark incoming work is marked
//     for degradation so the handler can shed to distance-only evaluation.
//
// Payloads are the self-contained binary messages of codec.go, so neither
// read loop decodes: the serving side peeks the header (to refuse expired
// work) and hands the bytes to the request's own goroutine, the dialling side
// hands them to the waiting caller. One large reply therefore never blocks
// the frames queued behind it, and a payload that fails to decode fails its
// own request (FrameErr) and nothing else. Encoding happens under the
// connection's send lock into one reused buffer per connection.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Hello is the handshake message both ends of a multiplexed connection
// exchange: the dialler sends its own (FrameHello), the accepter answers
// with its serving identity (FrameWelcome).
type Hello struct {
	// Node names the peer (an address or configured identity); Role is
	// "client", "obfuscator", "router" or "server".
	Node string
	Role string
	// Generation and ContentSum identify the metric a serving peer currently
	// answers under (see ServerReply.Generation/ContentSum); zero for peers
	// that do not serve queries.
	Generation uint64
	ContentSum uint64
	// MaxInFlight advertises the per-connection admission window the serving
	// peer enforces.
	MaxInFlight int
}

// Mux transport errors.
var (
	// ErrMuxClosed reports an operation on a multiplexed connection that has
	// failed or been closed; pending and future calls all return it (wrapped
	// around the terminal cause).
	ErrMuxClosed = errors.New("protocol: mux connection closed")
	// ErrHandshake reports a handshake that did not follow Hello/Welcome.
	ErrHandshake = errors.New("protocol: mux handshake failed")
	// ErrDeadlineExceeded reports a request whose deadline passed before a
	// reply arrived. The connection itself may be healthy (a slow peer) or
	// silently dead (a blackholed route) — the caller cannot tell, so fleet
	// routers treat it as a shard health failure.
	ErrDeadlineExceeded = errors.New("protocol: deadline exceeded")
)

// DeadlineExceededMsg is the RemoteError message the serving side answers
// with when it drops a request whose header deadline expired before
// evaluation started.
const DeadlineExceededMsg = "deadline exceeded before evaluation"

// IsDeadlineExceeded reports whether err is a deadline failure — either the
// local ErrDeadlineExceeded (no reply in time) or the peer's remote drop of
// expired work.
func IsDeadlineExceeded(err error) bool {
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, DeadlineExceededMsg)
}

// UpdateRefusedMsg prefixes the RemoteError message a server answers a
// WeightUpdate with when it refuses the update's content (an unknown node,
// an invalid cost or a nonexistent arc) before applying any of it. Every
// server of one road map refuses such an update alike; any other failure
// may come after the server applied part or all of the update.
const UpdateRefusedMsg = "weight update refused"

// IsUpdateRefused reports whether err is a peer's refusal of a weight
// update's content (see UpdateRefusedMsg).
func IsUpdateRefused(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, UpdateRefusedMsg)
}

// RemoteError is a failure reported by the peer's handler (a FrameErr
// answer). It is distinct from transport errors: the connection remains
// healthy and retrying on another connection will not help unless the
// request itself changes.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "protocol: remote error: " + e.Msg }

// Is reports whether the peer failed with target, for the one sentinel whose
// text a peer's failure carries whatever wraps it and however many hops it
// crossed: ErrTopologyMismatch.
func (e *RemoteError) Is(target error) bool {
	//opaque:allow(sentinelis) an Is method is handed each target errors.Is unwraps to; identity is its contract
	return target == ErrTopologyMismatch && strings.Contains(e.Msg, ErrTopologyMismatch.Error())
}

// maxRetainedBuf caps the write buffer a connection keeps between sends: a
// one-off multi-megabyte reply must not pin its buffer for the connection's
// lifetime.
const maxRetainedBuf = 64 << 10

// appendMessageFrame appends one whole frame carrying msg (nil = empty
// payload) to dst: the frame header is reserved, the payload encoded in
// place behind it, and the length patched in.
//
//opaque:noalloc
func appendMessageFrame(dst []byte, ft FrameType, id uint64, msg any, deadline int64) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	dst = append(dst, hdr[:]...) //opaque:allow(noalloc) appends into the connection's reused write buffer; no growth once warm
	if msg != nil {
		var err error
		if dst, err = AppendMessage(dst, msg, deadline); err != nil {
			return dst[:0], err
		}
	}
	n := len(dst) - frameHeaderLen
	if n > MaxFramePayload {
		//opaque:allow(noalloc) refusal path: the frame is never sent, steady state never gets here
		return dst[:0], fmt.Errorf("%w: payload %d > %d", ErrFrameTooLarge, n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(dst[0:4], uint32(frameOverhead+n))
	dst[4] = byte(ft)
	binary.BigEndian.PutUint64(dst[5:13], id)
	return dst, nil
}

// frameWriter serialises the writers of one connection and owns its reused
// write buffer.
type frameWriter struct {
	mu  sync.Mutex
	raw net.Conn
	buf []byte
}

// errEncode marks a send that failed before any byte reached the wire: the
// message could not be encoded, the connection is untouched.
var errEncode = errors.New("protocol: encoding message")

// send encodes and writes one frame. A non-zero deadline doubles as the raw
// connection's write deadline, so a peer that stopped reading (a blackholed
// route pushing back through the transport) cannot wedge the sender forever.
func (w *frameWriter) send(ft FrameType, id uint64, msg any, deadline int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := appendMessageFrame(w.buf[:0], ft, id, msg, deadline)
	if err != nil {
		return fmt.Errorf("%w: %w", errEncode, err)
	}
	if cap(buf) <= maxRetainedBuf {
		w.buf = buf
	}
	if deadline != 0 {
		_ = w.raw.SetWriteDeadline(time.Unix(0, deadline))
		defer func() { _ = w.raw.SetWriteDeadline(time.Time{}) }()
	}
	_, err = w.raw.Write(buf)
	return err
}

// decodeHello decodes a handshake or heartbeat payload. A peer speaking
// another codec version is refused here, before any request is exchanged.
func decodeHello(payload []byte) (Hello, error) {
	msg, _, err := DecodeMessage(payload)
	if err != nil {
		return Hello{}, err
	}
	h, ok := msg.(Hello)
	if !ok {
		return Hello{}, fmt.Errorf("%w: handshake payload carries a %T", ErrPayloadMalformed, msg)
	}
	return h, nil
}

// MuxClient is the dialling side of a multiplexed connection: any number of
// goroutines issue requests concurrently over one persistent framed
// connection. A transport failure fails every pending and future call with
// ErrMuxClosed (wrapping the cause); the client is then dead and a new one
// must be dialled.
type MuxClient struct {
	w    frameWriter // owns the raw connection
	peer Hello

	nextID atomic.Uint64

	mu sync.Mutex
	// pending maps each in-flight request to the channel its reply frames —
	// several for a streaming reply, exactly one for a unary one — are
	// delivered on, undecoded: the caller decodes on its own goroutine.
	pending map[uint64]chan Frame
	err     error // terminal cause, set once under mu

	closeOnce sync.Once
	done      chan struct{}
}

// DialMux connects to addr over TCP and performs the multiplexed handshake,
// announcing hello.
func DialMux(addr string, hello Hello) (*MuxClient, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: dial %s: %w", addr, err)
	}
	c, err := NewMuxClient(raw, hello)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// NewMuxClient wraps an established stream connection, sends hello and waits
// for the peer's welcome. On error the raw connection is left to the caller.
func NewMuxClient(raw net.Conn, hello Hello) (*MuxClient, error) {
	c := &MuxClient{
		w:       frameWriter{raw: raw},
		pending: make(map[uint64]chan Frame),
		done:    make(chan struct{}),
	}
	if err := c.w.send(FrameHello, 0, hello, 0); err != nil {
		return nil, fmt.Errorf("%w: sending hello: %v", ErrHandshake, err)
	}
	f, err := ReadFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: reading welcome: %v", ErrHandshake, err)
	}
	if f.Type != FrameWelcome {
		return nil, fmt.Errorf("%w: expected welcome frame, got type %d", ErrHandshake, f.Type)
	}
	if c.peer, err = decodeHello(f.Payload); err != nil {
		return nil, fmt.Errorf("%w: decoding welcome: %v", ErrHandshake, err)
	}
	go c.readLoop()
	return c, nil
}

// Peer returns the accepting side's Hello: its identity, generation, content
// checksum and partition shape — as of the handshake, or of
// the latest Ping pong, whichever is fresher.
func (c *MuxClient) Peer() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Err returns the terminal transport error, or nil while the connection is
// healthy.
func (c *MuxClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; pending calls fail with ErrMuxClosed.
func (c *MuxClient) Close() error {
	c.fail(ErrMuxClosed)
	return nil
}

// fail records the terminal cause once, closes the raw connection and fails
// every pending call.
func (c *MuxClient) fail(cause error) {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.err = cause
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		close(c.done)
		c.w.raw.Close()
		for _, events := range pending {
			close(events)
		}
	})
}

// readLoop hands reply frames to their pending calls until the connection
// dies. It never decodes a payload and never blocks on a caller.
func (c *MuxClient) readLoop() {
	for {
		f, err := ReadFrame(c.w.raw)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
			return
		}
		if f.Type == FrameGoAway {
			c.fail(fmt.Errorf("%w: peer sent go-away", ErrMuxClosed))
			return
		}
		terminal := f.Type != FrameStreamItem
		c.mu.Lock()
		events := c.pending[f.ID]
		if events != nil && terminal {
			// Terminal frame for this ID: no more events will follow.
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if events == nil {
			continue // reply for a caller that gave up; drop
		}
		select {
		case events <- f:
		default:
			// Every call's channel holds all the frames its request can
			// legally be answered with; a full one means the peer sent more.
			c.fail(fmt.Errorf("%w: peer overran the reply stream of request %d", ErrMuxClosed, f.ID))
			return
		}
		if terminal {
			close(events)
		}
	}
}

// register allocates a request ID and its reply channel, sized to the frames
// the request can be answered with: 1 for a unary call, one per query plus
// the stream end for a batch.
func (c *MuxClient) register(frames int) (uint64, chan Frame, error) {
	id := c.nextID.Add(1)
	events := make(chan Frame, frames)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %v", ErrMuxClosed, err)
	}
	c.pending[id] = events
	c.mu.Unlock()
	return id, events, nil
}

// send encodes and writes one request frame, stamping the header deadline
// (Unix nanos, 0 = none).
func (c *MuxClient) send(ft FrameType, id uint64, msg any, deadline int64) error {
	err := c.w.send(ft, id, msg, deadline)
	if err == nil || errors.Is(err, errEncode) {
		return err
	}
	// A failed or timed-out write leaves a partial frame on the wire; the
	// connection is unusable either way.
	c.fail(fmt.Errorf("%w: %v", ErrMuxClosed, err))
	return fmt.Errorf("%w: %v", ErrMuxClosed, err)
}

// abandon forgets an in-flight call after a send failure.
func (c *MuxClient) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// deadlineNanos validates a deadline and converts it to header form. It
// returns an error when the deadline has already passed — the request must
// not be sent at all.
func deadlineNanos(deadline time.Time) (int64, error) {
	if deadline.IsZero() {
		return 0, nil
	}
	if !time.Now().Before(deadline) {
		return 0, fmt.Errorf("%w: before send", ErrDeadlineExceeded)
	}
	return deadline.UnixNano(), nil
}

// deadlineTimer returns a channel firing at deadline (nil = never) and its
// stop function.
func deadlineTimer(deadline time.Time) (<-chan time.Time, func()) {
	if deadline.IsZero() {
		return nil, func() {}
	}
	tm := time.NewTimer(time.Until(deadline))
	return tm.C, func() { tm.Stop() }
}

// inflight is one sent request whose reply frames are being awaited.
type inflight struct {
	c       *MuxClient
	id      uint64
	events  chan Frame
	timeout <-chan time.Time
	stop    func()
}

// start sends one request — msg in a frame of type ft, answerable with up to
// events frames — bounded by deadline (zero = none). The caller must stop()
// the returned inflight.
func (c *MuxClient) start(ft FrameType, msg any, events int, deadline time.Time) (inflight, error) {
	dl, err := deadlineNanos(deadline)
	if err != nil {
		return inflight{}, err
	}
	id, ch, err := c.register(events)
	if err != nil {
		return inflight{}, err
	}
	if err := c.send(ft, id, msg, dl); err != nil {
		c.abandon(id)
		return inflight{}, err
	}
	timeout, stop := deadlineTimer(deadline)
	return inflight{c: c, id: id, events: ch, timeout: timeout, stop: stop}, nil
}

// next blocks for the request's next reply frame, bounded by its deadline. A
// timeout abandons the request — a late reply is dropped by the read loop —
// and returns ErrDeadlineExceeded.
func (f inflight) next() (Frame, error) {
	select {
	case ev, ok := <-f.events:
		if !ok {
			return Frame{}, fmt.Errorf("%w: %v", ErrMuxClosed, f.c.Err())
		}
		return ev, nil
	case <-f.timeout:
		f.c.abandon(f.id)
		return Frame{}, fmt.Errorf("%w: no reply for request %d", ErrDeadlineExceeded, f.id)
	}
}

// giveUp abandons the request after a reply the caller cannot use and returns
// err: whatever else the peer sends for it is dropped by the read loop.
func (f inflight) giveUp(err error) error {
	f.c.abandon(f.id)
	return err
}

// decodeEvent decodes the payload of a reply frame on the caller's
// goroutine. A FrameErr becomes a *RemoteError; a payload that does not
// decode fails this call only.
func decodeEvent(ev Frame) (any, error) {
	msg, _, err := DecodeMessage(ev.Payload)
	if err != nil {
		return nil, fmt.Errorf("protocol: undecodable %d frame from peer: %w", ev.Type, err)
	}
	if ev.Type == FrameErr {
		if er, isErr := msg.(ErrorReply); isErr {
			return nil, &RemoteError{Msg: er.Message}
		}
		return nil, &RemoteError{Msg: fmt.Sprintf("malformed error reply %T", msg)}
	}
	return msg, nil
}

// Do sends one unary request and waits for its reply. A FrameErr answer is
// returned as *RemoteError; a transport failure as ErrMuxClosed.
func (c *MuxClient) Do(msg any) (any, error) { return c.DoDeadline(msg, time.Time{}) }

// DoDeadline is Do with an absolute deadline (zero = none): the deadline
// rides in the request header so the serving side drops the work if it
// expires before evaluation, and the wait for the reply is bounded by the
// same clock — ErrDeadlineExceeded either way.
func (c *MuxClient) DoDeadline(msg any, deadline time.Time) (any, error) {
	ev, err := c.unary(msg, deadline)
	if err != nil {
		return nil, err
	}
	return decodeEvent(ev)
}

// DoHeld is DoDeadline for a query whose reply the caller relays rather than
// reads: the reply comes back held in its wire form (see HeldReply), only
// its header decoded. A FrameErr answer is returned as *RemoteError.
func (c *MuxClient) DoHeld(q ServerQuery, deadline time.Time) (HeldReply, error) {
	ev, err := c.unary(q, deadline)
	if err != nil {
		return HeldReply{}, err
	}
	if ev.Type == FrameErr {
		_, err := decodeEvent(ev)
		return HeldReply{}, err
	}
	h, _, err := ReadHeldReply(ev.Payload)
	if err != nil {
		return HeldReply{}, fmt.Errorf("protocol: undecodable reply header from peer: %w", err)
	}
	return h, nil
}

// unary sends one unary request and returns its answer frame, a FrameMsg or
// a FrameErr, undecoded.
func (c *MuxClient) unary(msg any, deadline time.Time) (Frame, error) {
	req, err := c.start(FrameMsg, msg, 1, deadline)
	if err != nil {
		return Frame{}, err
	}
	defer req.stop()
	ev, err := req.next()
	if err != nil {
		return Frame{}, err
	}
	if ev.Type != FrameMsg && ev.Type != FrameErr {
		return Frame{}, req.giveUp(fmt.Errorf("protocol: unexpected %d frame answering unary request", ev.Type))
	}
	return ev, nil
}

// Ping probes the peer over the identity stream: a FramePing is answered
// inline by the serving side — before admission control, so a saturated but
// alive peer still pongs — with its current Hello, which also refreshes
// Peer(). The deadline bounds the whole probe (zero = wait forever, which is
// almost never what a health checker wants).
func (c *MuxClient) Ping(deadline time.Time) (Hello, error) {
	req, err := c.start(FramePing, nil, 1, deadline)
	if err != nil {
		return Hello{}, err
	}
	defer req.stop()
	ev, err := req.next()
	if err != nil {
		return Hello{}, err
	}
	if ev.Type != FramePong {
		return Hello{}, req.giveUp(fmt.Errorf("protocol: unexpected %d frame answering ping", ev.Type))
	}
	// A bad pong only fails the probe, not the connection.
	h, err := decodeHello(ev.Payload)
	if err != nil {
		return Hello{}, fmt.Errorf("protocol: undecodable pong: %w", err)
	}
	c.mu.Lock()
	c.peer = h
	c.mu.Unlock()
	return h, nil
}

// DoBatch sends a batch query and reassembles its streamed reply: one
// BatchItem per query in any completion order, closed by a stream end.
// Per-query failures land in the returned BatchReply.Errors — among them an
// item whose reply does not decode, which fails its own query only; the
// error return is reserved for whole-batch and transport failures. Replies
// are decoded without a map, as node-id paths: the batch's queries name
// none (ServerQuery.Topology 0). A peer that names its map holds the
// replies (DoBatchHeld) and reads them against it.
func (c *MuxClient) DoBatch(b BatchQuery) (BatchReply, error) {
	return c.DoBatchDeadline(b, time.Time{})
}

// DoBatchDeadline is DoBatch with an absolute deadline (zero = none)
// stamped into the request header and bounding the streamed reply drain.
func (c *MuxClient) DoBatchDeadline(b BatchQuery, deadline time.Time) (BatchReply, error) {
	replies, errs, err := doBatch(c, b, deadline, func(body []byte) (ServerReply, error) { return decodeReplyBody(body, nil) })
	if err != nil {
		return BatchReply{}, err
	}
	return BatchReply{BatchID: b.BatchID, Replies: replies, Errors: errs}, nil
}

// DoBatchHeld is DoBatchDeadline for a batch whose replies the caller relays
// rather than reads: each comes back held in its wire form (see HeldReply),
// only its header decoded. An item whose reply header does not read fails
// its own query, in the returned errors.
func (c *MuxClient) DoBatchHeld(b BatchQuery, deadline time.Time) ([]HeldReply, []string, error) {
	return doBatch(c, b, deadline, holdReply)
}

// doBatch sends b and drains its streamed reply: each item's reply body goes
// through read into its query's slot. An item whose BatchID, Index and
// Error read but whose reply does not fails its own slot, and the drain goes
// on; an item that cannot be placed — unreadable, or its index outside the
// batch — fails the whole batch, as does a FrameErr or a transport failure.
func doBatch[R any](c *MuxClient, b BatchQuery, deadline time.Time, read func(body []byte) (R, error)) ([]R, []string, error) {
	req, err := c.start(FrameMsg, b, len(b.Queries)+1, deadline)
	if err != nil {
		return nil, nil, err
	}
	defer req.stop()
	replies := make([]R, len(b.Queries))
	errs := make([]string, len(b.Queries))
	for {
		ev, werr := req.next()
		if werr != nil {
			return nil, nil, werr
		}
		switch ev.Type {
		case FrameStreamEnd:
			return replies, errs, nil
		case FrameErr:
			_, err := decodeEvent(ev)
			return nil, nil, req.giveUp(err)
		case FrameStreamItem:
		default:
			// Connection-level frames never reach a registered call; anything
			// else here is a peer protocol bug, not something to spin on.
			return nil, nil, req.giveUp(fmt.Errorf("protocol: unexpected %d frame in batch reply stream", ev.Type))
		}
		item, body, err := readItemHead(ev.Payload)
		if err != nil {
			return nil, nil, req.giveUp(fmt.Errorf("protocol: undecodable batch item from peer: %w", err))
		}
		if item.Index < 0 || item.Index >= len(b.Queries) {
			return nil, nil, req.giveUp(fmt.Errorf("protocol: stream item index %d outside batch of %d", item.Index, len(b.Queries)))
		}
		rep, err := read(body)
		if err != nil {
			errs[item.Index] = fmt.Errorf("protocol: undecodable reply to batch item %d from peer: %w", item.Index, err).Error()
			continue
		}
		replies[item.Index], errs[item.Index] = rep, item.Error
	}
}

// ReqInfo carries per-request serving context to a MuxHandler.
type ReqInfo struct {
	// Shed is true when the connection is above its ShedAt watermark: the
	// handler should degrade the answer (distance-only evaluation) rather
	// than refuse it.
	Shed bool
	// Deadline is the request's absolute deadline (zero = none). The serve
	// loop already drops work whose deadline passed before evaluation began;
	// handlers may use the remaining budget to bound their own work.
	Deadline time.Time
}

// MuxHandler answers unary messages arriving on a multiplexed connection.
// The transport only ever reads what a handler returns: a handler may return
// the same value any number of times, to any number of connections.
type MuxHandler interface {
	HandleMux(msg any, info ReqInfo) (any, error)
}

// MuxHandlerFunc adapts a function to MuxHandler.
type MuxHandlerFunc func(msg any, info ReqInfo) (any, error)

// HandleMux implements MuxHandler.
func (f MuxHandlerFunc) HandleMux(msg any, info ReqInfo) (any, error) { return f(msg, info) }

// MuxBatchStreamer is an optional MuxHandler extension for serving sides
// that stream batch replies: emit is called once per query as it completes
// (safe to call concurrently), and the transport closes the stream when
// HandleMuxBatch returns. Returning an error fails the whole batch with one
// FrameErr instead.
type MuxBatchStreamer interface {
	HandleMuxBatch(b BatchQuery, info ReqInfo, emit func(BatchItem)) error
}

// MuxServerConfig parameterises the serving side of the multiplexed
// transport.
type MuxServerConfig struct {
	// Hello produces the welcome sent to each connecting peer; re-evaluated
	// per connection so it carries the current generation. Nil sends a zero
	// Hello.
	Hello func() Hello
	// MaxInFlight caps concurrently executing requests per connection;
	// further frames stay unread (transport backpressure). <= 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// ShedAt is the admission-control watermark: when, counting itself, at
	// least ShedAt requests are in flight on the connection, the request is
	// marked for degradation (shed=true — servers answer distance-only from
	// the many-to-many engine instead of queueing full path unpacking).
	// 0 disables shedding; 1 sheds everything.
	ShedAt int
}

// DefaultMaxInFlight is the per-connection admission window used when
// MuxServerConfig.MaxInFlight is unset.
const DefaultMaxInFlight = 64

// ServeMuxConn serves one multiplexed connection: handshake, then one
// goroutine per request under the admission window, until the connection
// fails or closes. Handler errors — and request payloads that do not decode
// — are reported to the peer as FrameErr for that request and do not
// terminate the connection.
func ServeMuxConn(raw net.Conn, h MuxHandler, cfg MuxServerConfig) error {
	defer raw.Close()
	f, err := ReadFrame(raw)
	if err != nil {
		return fmt.Errorf("%w: reading hello: %v", ErrHandshake, err)
	}
	if f.Type != FrameHello {
		return fmt.Errorf("%w: expected hello frame, got type %d", ErrHandshake, f.Type)
	}
	_, helloErr := decodeHello(f.Payload)
	if helloErr != nil && !errors.Is(helloErr, ErrCodecVersion) {
		return fmt.Errorf("%w: decoding hello: %v", ErrHandshake, helloErr)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	hello := func() Hello {
		var hello Hello
		if cfg.Hello != nil {
			hello = cfg.Hello()
		}
		if hello.MaxInFlight == 0 {
			hello.MaxInFlight = maxInFlight
		}
		return hello
	}
	w := &frameWriter{raw: raw}
	// The welcome goes out even to a peer of another codec version: its header
	// tells that peer which version this side speaks, so both ends report the
	// mismatch instead of one seeing a bare disconnect.
	if err := w.send(FrameWelcome, 0, hello(), 0); err != nil {
		return fmt.Errorf("%w: sending welcome: %v", ErrHandshake, err)
	}
	if helloErr != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, helloErr)
	}

	reply := func(ft FrameType, id uint64, msg any) { _ = w.send(ft, id, msg, 0) }
	slots := make(chan struct{}, maxInFlight)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, err := ReadFrame(raw)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if f.Type == FrameGoAway {
			return nil
		}
		if f.Type == FramePing {
			// Answered inline, before the admission slot gate, so a shard
			// saturated with work still heartbeats. The pong carries a fresh
			// Hello — every probe refreshes the peer's view of our identity.
			if err := w.send(FramePong, f.ID, hello(), 0); err != nil {
				return err
			}
			continue
		}
		if f.Type != FrameMsg {
			return fmt.Errorf("protocol: unexpected %d frame from mux peer", f.Type)
		}
		// Only the header is read here; the body is decoded by the request's
		// own goroutine, so a large request never delays the frames behind it.
		_, dlNanos, err := PeekHeader(f.Payload)
		if err != nil {
			reply(FrameErr, f.ID, ErrorReply{Message: err.Error()})
			continue
		}
		var deadline time.Time
		if dlNanos != 0 {
			deadline = time.Unix(0, dlNanos)
			if !time.Now().Before(deadline) {
				// Expired before admission: refuse without burning a slot or
				// decoding the body.
				reply(FrameErr, f.ID, ErrorReply{Message: DeadlineExceededMsg})
				continue
			}
		}
		slots <- struct{}{} // blocks at MaxInFlight: transport backpressure
		n := inFlight.Add(1)
		shed := cfg.ShedAt > 0 && n >= int64(cfg.ShedAt)
		wg.Add(1)
		go func(id uint64, payload []byte, info ReqInfo) {
			defer func() {
				inFlight.Add(-1)
				<-slots
				wg.Done()
			}()
			if !info.Deadline.IsZero() && !time.Now().Before(info.Deadline) {
				// Expired while queued behind the slot gate: drop the work
				// instead of evaluating an answer nobody is waiting for.
				reply(FrameErr, id, ErrorReply{Message: DeadlineExceededMsg})
				return
			}
			msg, _, err := DecodeMessage(payload)
			if err != nil {
				reply(FrameErr, id, ErrorReply{Message: err.Error()})
				return
			}
			if b, ok := msg.(BatchQuery); ok {
				if streamer, ok := h.(MuxBatchStreamer); ok {
					err := streamer.HandleMuxBatch(b, info, func(item BatchItem) {
						// An item that cannot be encoded still answers its query.
						if err := w.send(FrameStreamItem, id, &item, 0); errors.Is(err, errEncode) {
							reply(FrameStreamItem, id, BatchItem{BatchID: item.BatchID, Index: item.Index, Error: err.Error()})
						}
					})
					if err != nil {
						reply(FrameErr, id, ErrorReply{RefID: b.BatchID, Message: err.Error()})
						return
					}
					reply(FrameStreamEnd, id, nil)
					return
				}
			}
			res, err := h.HandleMux(msg, info)
			if err == nil {
				err = w.send(FrameMsg, id, res, 0)
				if !errors.Is(err, errEncode) {
					return // sent, or the connection is failing and the read loop will notice
				}
				// A reply that cannot be encoded must still answer the request.
			}
			reply(FrameErr, id, ErrorReply{Message: err.Error()})
		}(f.ID, f.Payload, ReqInfo{Shed: shed, Deadline: deadline})
	}
}

// ServeMux accepts connections from ln and serves each as a multiplexed
// connection on its own goroutine until the listener closes. It returns the
// accept error that terminated the loop.
func ServeMux(ln net.Listener, h MuxHandler, cfg MuxServerConfig) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeMuxConn(raw, h, cfg)
		}()
	}
}
