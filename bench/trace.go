package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/obfsvc"
	"opaque/internal/protocol"
)

// The tracer records a span around every seam the benchmark itself wires:
// the generator's call, the obfuscator's handler, the executor handed to
// obfsvc.New, the router's handler and each shard's handler. Nothing inside
// the program under test is touched. Spans stay in memory and are written
// out (to -out) only after the run.
//
// Two identifier spaces exist. Generator and obfuscator spans carry the
// client's RequestID; executor, router and shard spans carry the QueryIDs of
// the obfuscated queries they handled. The obfuscator assigns QueryIDs
// internally, so the two spaces are joined by time: a request's batch is the
// executor span that ends last inside the request's handler span.

// Span names, one per seam.
const (
	spanCall    = "client.call"
	spanObfsvc  = "obfsvc.handle"
	spanExecute = "obfsvc.execute"
	spanRouter  = "fleet.handle"
	spanShard   = "server.handle"
)

// span is one recorded interval. id is the RequestID (client.call,
// obfsvc.handle) or the BatchID of the request (direct-batch); qids are the
// QueryIDs the call carried.
type span struct {
	name       string
	id         uint64
	qids       []uint64
	start, end time.Duration // since the tracer's epoch
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans are being recorded; a nil tracer never
// records.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) record(name string, id uint64, qids []uint64, start time.Time) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, qids: qids, start: start.Sub(t.epoch), end: end})
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// queryIDs extracts the identifiers of a message arriving at a handler.
func queryIDs(msg any) (id uint64, qids []uint64, ok bool) {
	switch m := msg.(type) {
	case protocol.ClientRequest:
		return m.RequestID, nil, true
	case protocol.ServerQuery:
		return 0, []uint64{m.QueryID}, true
	case protocol.BatchQuery:
		qids = make([]uint64, len(m.Queries))
		for i, q := range m.Queries {
			qids[i] = q.QueryID
		}
		return m.BatchID, qids, true
	}
	return 0, nil, false // weight updates are not part of the read path
}

// tracedHandler wraps a unary protocol.MuxHandler.
type tracedHandler struct {
	t    *tracer
	name string
	h    protocol.MuxHandler
}

func (th tracedHandler) HandleMux(msg any, info protocol.ReqInfo) (any, error) {
	id, qids, ok := queryIDs(msg)
	if !ok || !th.t.enabled() {
		return th.h.HandleMux(msg, info)
	}
	start := time.Now()
	res, err := th.h.HandleMux(msg, info)
	th.t.record(th.name, id, qids, start)
	return res, err
}

// tracedStreamer additionally forwards streaming batches, so the transport
// keeps answering them one frame per query.
type tracedStreamer struct {
	tracedHandler
	s protocol.MuxBatchStreamer
}

func (ts tracedStreamer) HandleMuxBatch(b protocol.BatchQuery, info protocol.ReqInfo, emit func(protocol.BatchItem)) error {
	if !ts.t.enabled() {
		return ts.s.HandleMuxBatch(b, info, emit)
	}
	id, qids, _ := queryIDs(b)
	start := time.Now()
	err := ts.s.HandleMuxBatch(b, info, emit)
	ts.t.record(ts.name, id, qids, start)
	return err
}

// wrapHandler wraps a unary handler; a nil tracer returns h itself.
func (t *tracer) wrapHandler(name string, h protocol.MuxHandler) protocol.MuxHandler {
	if t == nil {
		return h
	}
	return tracedHandler{t: t, name: name, h: h}
}

// wrapStreamer wraps a handler that also streams batches (router, server).
func (t *tracer) wrapStreamer(name string, h protocol.MuxHandler) protocol.MuxHandler {
	if t == nil {
		return h
	}
	return tracedStreamer{tracedHandler: tracedHandler{t: t, name: name, h: h}, s: h.(protocol.MuxBatchStreamer)}
}

// tracedExecutor wraps the executor handed to obfsvc.New.
type tracedExecutor struct {
	t     *tracer
	inner obfsvc.BatchExecutor
	n     atomic.Uint64
}

func (te *tracedExecutor) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	if !te.t.enabled() {
		return te.inner.Execute(q)
	}
	start := time.Now()
	rep, err := te.inner.Execute(q)
	te.t.record(spanExecute, te.n.Add(1), []uint64{q.QueryID}, start)
	return rep, err
}

func (te *tracedExecutor) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	if !te.t.enabled() {
		return te.inner.ExecuteBatch(qs)
	}
	qids := make([]uint64, len(qs))
	for i, q := range qs {
		qids[i] = q.QueryID
	}
	start := time.Now()
	reps, errs := te.inner.ExecuteBatch(qs)
	te.t.record(spanExecute, te.n.Add(1), qids, start)
	return reps, errs
}

func (t *tracer) wrapExecutor(e obfsvc.BatchExecutor) obfsvc.BatchExecutor {
	if t == nil {
		return e
	}
	return &tracedExecutor{t: t, inner: e}
}

// selfTimes is the per-request breakdown of one traced pass: every slice has
// one entry per request whose whole span chain was found, and for each
// request the entries add up to its client.call span exactly.
type selfTimes struct {
	total         []float64 // client.call
	clientSelf    []float64 // client.call − front-door handler
	preExecute    []float64 // obfsvc.handle start → obfsvc.execute start (window wait + plan)
	execTransport []float64 // obfsvc.execute − fleet.handle
	fleetSelf     []float64 // fleet.handle − slowest server.handle
	shardSlowest  []float64 // slowest server.handle of the batch
	deliver       []float64 // obfsvc.execute end → obfsvc.handle end (filter + hand-off)
	shardAll      []float64 // every server.handle span, not only the slowest
	unresolved    int       // requests whose chain had a missing span
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// analyse joins the spans of one pass into per-request self times.
func analyse(spans []span, direct bool) selfTimes {
	var st selfTimes
	calls := map[uint64]span{}
	handles := map[uint64]span{}
	var execs []span
	routerByQ := map[uint64]span{}
	shardsByQ := map[uint64][]span{}
	shardByBatch := map[uint64]span{}
	for _, s := range spans {
		switch s.name {
		case spanCall:
			calls[s.id] = s
		case spanObfsvc:
			handles[s.id] = s
		case spanExecute:
			execs = append(execs, s)
		case spanRouter:
			for _, q := range s.qids {
				routerByQ[q] = s
			}
		case spanShard:
			st.shardAll = append(st.shardAll, ms(s.end-s.start))
			shardByBatch[s.id] = s
			for _, q := range s.qids {
				shardsByQ[q] = append(shardsByQ[q], s)
			}
		}
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].end < execs[j].end })

	for id, call := range calls {
		if direct {
			sh, ok := shardByBatch[id]
			if !ok {
				st.unresolved++
				continue
			}
			st.total = append(st.total, ms(call.end-call.start))
			st.clientSelf = append(st.clientSelf, ms((call.end-call.start)-(sh.end-sh.start)))
			st.shardSlowest = append(st.shardSlowest, ms(sh.end-sh.start))
			continue
		}
		h, ok := handles[id]
		if !ok {
			st.unresolved++
			continue
		}
		// The request's batch: the executor span inside the handler span that
		// ends last (the handler returns right after its batch completes).
		i := sort.Search(len(execs), func(i int) bool { return execs[i].end > h.end }) - 1
		for i >= 0 && execs[i].start < h.start {
			i--
		}
		if i < 0 || execs[i].end < h.start {
			st.unresolved++
			continue
		}
		e := execs[i]
		r, ok := routerByQ[e.qids[0]]
		if !ok {
			st.unresolved++
			continue
		}
		var slowest time.Duration
		for _, q := range e.qids {
			for _, sh := range shardsByQ[q] {
				if d := sh.end - sh.start; d > slowest {
					slowest = d
				}
			}
		}
		if slowest == 0 {
			st.unresolved++
			continue
		}
		st.total = append(st.total, ms(call.end-call.start))
		st.clientSelf = append(st.clientSelf, ms((call.end-call.start)-(h.end-h.start)))
		st.preExecute = append(st.preExecute, ms(e.start-h.start))
		st.execTransport = append(st.execTransport, ms((e.end-e.start)-(r.end-r.start)))
		st.fleetSelf = append(st.fleetSelf, ms((r.end-r.start)-slowest))
		st.shardSlowest = append(st.shardSlowest, ms(slowest))
		st.deliver = append(st.deliver, ms(h.end-e.end))
	}
	return st
}

// spanLine is the on-disk form of one span (one JSON object per line).
type spanLine struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes the spans of one pass. Router and shard spans are
// written once per query they carried, with the QueryID as their id, so the
// file can be joined on ids alone; README.md ("Reading the span file") gives
// the id scheme.
func writeSpans(path string, spans []span, direct bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	batchOfQuery := map[uint64]uint64{}
	for _, s := range spans {
		if s.name == spanExecute {
			for _, q := range s.qids {
				batchOfQuery[q] = s.id
			}
		}
	}
	for _, s := range spans {
		line := spanLine{Name: s.name, StartNS: int64(s.start), EndNS: int64(s.end)}
		switch s.name {
		case spanCall:
			line.ID = fmt.Sprintf("r:%d", s.id)
			err = enc.Encode(line)
		case spanObfsvc:
			line.ID, line.Parent = fmt.Sprintf("r:%d", s.id), fmt.Sprintf("r:%d", s.id)
			err = enc.Encode(line)
		case spanExecute:
			// Parent left empty: a batch serves several requests; join by
			// interval containment under their obfsvc.handle spans.
			line.ID = fmt.Sprintf("b:%d", s.id)
			err = enc.Encode(line)
		default: // router and shard spans, one line per query
			for _, q := range s.qids {
				line.ID = fmt.Sprintf("q:%d", q)
				if s.name == spanRouter {
					line.Parent = fmt.Sprintf("b:%d", batchOfQuery[q])
				} else if direct {
					line.Parent = fmt.Sprintf("r:%d", s.id) // direct-batch: the generator's call
				} else {
					line.Parent = fmt.Sprintf("q:%d", q) // the fleet.handle span of the same query
				}
				if err = enc.Encode(line); err != nil {
					break
				}
			}
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
