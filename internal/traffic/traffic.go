// Package traffic implements the streaming ingestion pipeline that sits in
// front of the serving tier's live weight updates. A traffic feed emits a
// stream of per-segment cost events; sending each one through
// fleet.Router.UpdateWeights would pay one broadcast, one copy-on-write
// snapshot swap per shard and one overlay re-customization per event, and
// hold each event until its epoch is published. The pipeline turns that
// stream into a sustainable load in two stages:
//
//  1. Validation at the boundary. Every event is checked before it can touch
//     any shared state: NaN, infinite and negative costs (roadnet.CheckCost)
//     and references to arcs the road map does not have are rejected with a
//     typed *InvalidEventError. A bad feed value therefore never reaches the
//     fleet, and never drags down the valid events batched alongside it.
//  2. Coalescing. Events accumulate in a pending batch, last-write-wins per
//     arc: a segment reported ten times between flushes contributes one
//     change. The batch flushes when it reaches Config.MaxBatch distinct arcs
//     or when the oldest pending event has waited Config.MaxDelay, and the
//     flush hands it to the Sink, which applies and publishes it before it
//     returns.
//
// The pipeline folds by blocking: while the sink publishes one batch, newly
// ingested events wait in the queue, and once the call returns the
// coalescer takes them in back to back, so they coalesce into the next
// batches, up to MaxBatch distinct arcs each. There is one sink call in
// flight at a time, and arcs reported again while it runs cost one change
// in the next batch, not one each. How much this saves at a real feed's
// rate has not been measured.
package traffic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/roadnet"
)

// Sink receives coalesced weight-change batches: when UpdateWeights returns
// nil, the batch is applied and published. fleet.Router implements it.
type Sink interface {
	UpdateWeights(changes []roadnet.ArcWeightChange) error
}

// Config parameterises an Ingestor.
type Config struct {
	// MaxBatch flushes the pending batch once it holds this many distinct
	// arcs (default 256); no batch holds more. Raw events beyond the first
	// per arc coalesce and do not count against the limit.
	MaxBatch int
	// MaxDelay flushes the pending batch when its oldest event has waited
	// this long in the coalescer (default 25ms).
	MaxDelay time.Duration
	// Queue is the capacity of the event channel between Ingest callers and
	// the coalescer (default 4096). When it fills, Ingest blocks — the feed
	// sees backpressure instead of the pipeline growing without bound.
	Queue int
	// Topology is the road map the fleet serves; every event must name one
	// of its arcs. Required: weight updates cannot change topology, so the
	// startup graph stays authoritative for the whole stream, and this
	// boundary is the only place an unknown-arc event can be stopped before
	// it reaches the shards.
	Topology *roadnet.Graph
}

// Defaults for Config zero values.
const (
	DefaultMaxBatch = 256
	DefaultMaxDelay = 25 * time.Millisecond
	DefaultQueue    = 4096
)

// ErrClosed is returned by Ingest and Flush after Close.
var ErrClosed = errors.New("traffic: ingestor is closed")

// InvalidEventError reports an event rejected at the ingestion boundary —
// before it could reach the pending batch, let alone a snapshot swap.
type InvalidEventError struct {
	Event  roadnet.ArcWeightChange
	Reason string
}

// Error implements error.
func (e *InvalidEventError) Error() string {
	return fmt.Sprintf("traffic: invalid event %d→%d (cost %v): %s", e.Event.From, e.Event.To, e.Event.NewCost, e.Reason)
}

// Stats is a snapshot of the ingestor's counters.
type Stats struct {
	// Events counts raw events accepted by Ingest; Rejected counts events
	// refused by boundary validation.
	Events   int64
	Rejected int64
	// Batches counts flushes the sink applied; AppliedChanges sums their
	// sizes (distinct arcs after coalescing).
	Batches        int64
	AppliedChanges int64
	// ApplyFailures counts batches the sink refused; such a batch is
	// dropped and the stream goes on.
	ApplyFailures int64
	// QueueDepth is the number of accepted events waiting for the coalescer.
	QueueDepth int
}

// CoalesceRatio returns raw events per applied change — how many snapshot
// swaps the coalescer saved. 1 means no event shared an arc with another in
// its flush window; 10 means ten raw events collapsed into one change.
func (s Stats) CoalesceRatio() float64 {
	if s.AppliedChanges == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.AppliedChanges)
}

// Ingestor is the streaming ingestion pipeline: Ingest validates and
// enqueues events, and one coalescer goroutine batches them and hands each
// batch to the Sink.
type Ingestor struct {
	cfg  Config
	sink Sink

	events chan roadnet.ArcWeightChange
	flushC chan chan struct{}

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	events_    atomic.Int64
	rejected   atomic.Int64
	batches    atomic.Int64
	applied    atomic.Int64
	applyFails atomic.Int64
	lastErr    atomic.Pointer[error]
}

// NewIngestor starts the pipeline over sink. Close releases the goroutine
// this starts.
func NewIngestor(sink Sink, cfg Config) (*Ingestor, error) {
	if sink == nil {
		return nil, fmt.Errorf("traffic: nil sink")
	}
	if cfg.Topology == nil {
		return nil, fmt.Errorf("traffic: nil topology")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	in := &Ingestor{
		cfg:    cfg,
		sink:   sink,
		events: make(chan roadnet.ArcWeightChange, cfg.Queue),
		flushC: make(chan chan struct{}),
	}
	in.wg.Add(1)
	go in.coalesceLoop()
	return in, nil
}

// Ingest validates one event and enqueues it for coalescing. Validation
// failures return a typed *InvalidEventError without touching any shared
// state; a full queue blocks the caller (backpressure). Safe for any number
// of concurrent feeds.
func (in *Ingestor) Ingest(ev roadnet.ArcWeightChange) error {
	if err := in.validate(ev); err != nil {
		in.rejected.Add(1)
		return err
	}
	in.closeMu.RLock()
	defer in.closeMu.RUnlock()
	if in.closed {
		return ErrClosed
	}
	in.events <- ev
	in.events_.Add(1)
	return nil
}

// validate is the ingestion boundary: it rejects events the fleet would
// refuse, so that one bad event never fails the batch it would have joined.
func (in *Ingestor) validate(ev roadnet.ArcWeightChange) error {
	if err := roadnet.CheckCost(ev.NewCost); err != nil {
		return &InvalidEventError{Event: ev, Reason: err.Error()}
	}
	g := in.cfg.Topology
	if !g.ValidNode(ev.From) || !g.ValidNode(ev.To) {
		return &InvalidEventError{Event: ev, Reason: "references unknown node"}
	}
	if _, ok := g.ArcCost(ev.From, ev.To); !ok {
		return &InvalidEventError{Event: ev, Reason: "references nonexistent arc"}
	}
	return nil
}

// Flush applies every event ingested before the call: it returns once the
// sink has returned from the batch holding them, so they are published
// unless the sink refused that batch (Stats.ApplyFailures, and Close's
// error).
func (in *Ingestor) Flush() error {
	in.closeMu.RLock()
	if in.closed {
		in.closeMu.RUnlock()
		return ErrClosed
	}
	done := make(chan struct{})
	in.flushC <- done
	in.closeMu.RUnlock()
	<-done
	return nil
}

// Close drains and applies all accepted events and stops the coalescer.
// After Close returns, the sink has returned from every batch; Close reports
// the last batch the sink refused, if any. Ingest and Flush return ErrClosed
// afterwards. Close is idempotent.
func (in *Ingestor) Close() error {
	in.closeMu.Lock()
	if in.closed {
		in.closeMu.Unlock()
		return nil
	}
	in.closed = true
	close(in.events)
	in.closeMu.Unlock()
	in.wg.Wait()
	if err := in.lastErr.Load(); err != nil {
		return *err
	}
	return nil
}

// Stats returns a snapshot of the pipeline counters.
func (in *Ingestor) Stats() Stats {
	return Stats{
		Events:         in.events_.Load(),
		Rejected:       in.rejected.Load(),
		Batches:        in.batches.Load(),
		AppliedChanges: in.applied.Load(),
		ApplyFailures:  in.applyFails.Load(),
		QueueDepth:     len(in.events),
	}
}

// coalesceLoop is the single goroutine that owns the pending batch: a
// last-write-wins map plus the arcs' first-arrival order, flushed on size,
// delay, explicit Flush, or shutdown.
func (in *Ingestor) coalesceLoop() {
	defer in.wg.Done()

	pending := make(map[[2]roadnet.NodeID]float64, in.cfg.MaxBatch)
	var order [][2]roadnet.NodeID

	timer := time.NewTimer(in.cfg.MaxDelay)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	disarm := func() {
		if timerArmed && !timer.Stop() {
			<-timer.C
		}
		timerArmed = false
	}

	add := func(ev roadnet.ArcWeightChange) {
		key := [2]roadnet.NodeID{ev.From, ev.To}
		if _, dup := pending[key]; !dup {
			order = append(order, key)
			if len(order) == 1 {
				timer.Reset(in.cfg.MaxDelay)
				timerArmed = true
			}
		}
		pending[key] = ev.NewCost
	}

	flush := func() {
		disarm()
		if len(order) == 0 {
			return
		}
		changes := make([]roadnet.ArcWeightChange, len(order))
		for i, key := range order {
			changes[i] = roadnet.ArcWeightChange{From: key[0], To: key[1], NewCost: pending[key]}
		}
		clear(pending)
		order = order[:0]
		// The call blocks until the batch is published; events arriving
		// meanwhile queue up and fold into the next batches.
		if err := in.sink.UpdateWeights(changes); err != nil {
			in.applyFails.Add(1)
			in.lastErr.Store(&err)
			return
		}
		in.batches.Add(1)
		in.applied.Add(int64(len(changes)))
	}

	for {
		select {
		case ev, ok := <-in.events:
			if !ok {
				flush()
				return
			}
			add(ev)
			if len(order) >= in.cfg.MaxBatch {
				flush()
			}
		case <-timer.C:
			timerArmed = false
			flush()
		case done := <-in.flushC:
			// Every event ingested before the Flush call is queued by now:
			// take in the whole queue, flushing at MaxBatch as usual, so
			// Flush's "every event ingested before the call" promise holds.
			for drained := false; !drained; {
				select {
				case ev, ok := <-in.events:
					if !ok {
						flush()
						close(done)
						return
					}
					add(ev)
					if len(order) >= in.cfg.MaxBatch {
						flush()
					}
				default:
					drained = true
				}
			}
			flush()
			close(done)
		}
	}
}
