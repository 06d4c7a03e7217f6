// Package traffic implements the streaming ingestion pipeline that sits in
// front of the server's live weight updates. A real traffic feed emits
// thousands of per-segment cost events per second; applying each one through
// Server.UpdateWeights would pay one copy-on-write snapshot swap and one
// overlay re-customization per event, and hold each event until its epoch is
// published. The pipeline turns that stream into a sustainable load in three
// stages:
//
//  1. Validation at the boundary. Every event is checked before it can touch
//     any shared state: NaN, infinite, negative and out-of-range costs — and,
//     when the ingestor knows the topology, references to nonexistent arcs —
//     are rejected with a typed *InvalidEventError. A bad feed value can
//     therefore never poison a copy-on-write snapshot, and never drags down
//     the valid events batched alongside it.
//  2. Coalescing. Events accumulate in a pending batch, last-write-wins per
//     arc: a segment reported ten times between flushes contributes one
//     change. The batch flushes when it reaches Config.MaxBatch distinct arcs
//     or when the oldest pending event has waited Config.MaxDelay — so N raw
//     events become one snapshot swap and one incremental re-customization
//     instead of N, while no event is delayed longer than MaxDelay.
//  3. Pipelined refresh. Each applied batch signals a dedicated refresh
//     worker through a capacity-1 channel: while one refresh runs, any
//     number of newly applied batches fold into a single pending signal, and
//     the next run starts from the freshest snapshot (the Refresher loops
//     internally until it has published it). Back-to-back batches never
//     queue redundant passes. Until a batch is published, queries are
//     answered on the previous one, so the visibility lag stays near one
//     incremental re-customization latency regardless of arrival rate.
//
// The pipeline is deliberately decoupled from the server: it speaks to a
// Sink (apply a batch, return the new generation) and a Refresher (publish
// what the sink applied), which the server implements with ApplyWeights and
// RecustomizeNow.
package traffic

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/roadnet"
)

// Sink receives coalesced weight-change batches. The server's ApplyWeights
// implements it: one call is one copy-on-write snapshot swap.
type Sink interface {
	ApplyWeights(changes []roadnet.ArcWeightChange) (uint64, error)
}

// Refresher makes what the sink applied visible: it catches derived
// structures (the CH overlay's weight layer) up with the sink's current
// snapshot and publishes them. It must be safe to call repeatedly and
// concurrently with applies; the server's RecustomizeNow implements it by
// looping until the published epoch is the freshest snapshot.
type Refresher interface {
	RecustomizeNow() error
}

// Config parameterises an Ingestor.
type Config struct {
	// MaxBatch flushes the pending batch when it holds this many distinct
	// arcs (default 256). Raw events beyond the first per arc coalesce and
	// do not count against the limit.
	MaxBatch int
	// MaxDelay flushes the pending batch when its oldest event has waited
	// this long (default 25ms). This bounds the staleness an event can
	// accumulate in the coalescer regardless of arrival rate.
	MaxDelay time.Duration
	// Queue is the capacity of the event channel between Ingest callers and
	// the coalescer (default 4096). When it fills, Ingest blocks — the feed
	// sees backpressure instead of the server seeing unbounded memory.
	Queue int
	// MaxWeight rejects events whose cost exceeds it (0 = no upper bound
	// beyond finiteness). Feeds that model closures as very large costs set
	// this to their closure constant so a corrupt value above it cannot
	// enter.
	MaxWeight float64
	// Topology, when set, additionally validates that every event references
	// an existing arc of this graph. Weight updates cannot change topology,
	// so the startup graph stays authoritative for the whole stream; without
	// it an unknown-arc event is only caught at apply time, where it fails
	// the whole batch.
	Topology *roadnet.Graph
	// OnApplied, when set, runs on the coalescer goroutine after each batch
	// is applied, with the coalesced changes and the new data generation.
	// Experiments use it to verify every applied batch against a reference
	// search before the next one can land.
	OnApplied func(changes []roadnet.ArcWeightChange, gen uint64)
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
	// Batches counts flushes that reached the sink; AppliedChanges sums
	// their sizes (distinct arcs after coalescing).
	Batches        int64
	AppliedChanges int64
	// ApplyFailures counts batches the sink refused (the batch is dropped;
	// boundary validation makes this unreachable for value errors).
	ApplyFailures int64
	// RefreshRuns / RefreshFailures count the pipelined refresh worker's
	// Refresher calls. Runs can be far fewer than Batches: that gap is the
	// folding the pipeline exists for.
	RefreshRuns     int64
	RefreshFailures int64
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
// enqueues events, a coalescer goroutine batches and applies them through
// the Sink, and a refresh worker keeps the Refresher caught up without ever
// queueing redundant runs.
type Ingestor struct {
	cfg       Config
	sink      Sink
	refresher Refresher

	events  chan roadnet.ArcWeightChange
	flushC  chan chan struct{}
	refresh chan struct{}

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	events_     atomic.Int64
	rejected    atomic.Int64
	batches     atomic.Int64
	applied     atomic.Int64
	applyFails  atomic.Int64
	refreshRuns atomic.Int64
	refreshFail atomic.Int64
	lastErr     atomic.Pointer[error]
}

// NewIngestor starts the pipeline over sink, published by refresher. Close
// releases the two goroutines this starts.
func NewIngestor(sink Sink, refresher Refresher, cfg Config) (*Ingestor, error) {
	if sink == nil {
		return nil, fmt.Errorf("traffic: nil sink")
	}
	if refresher == nil {
		return nil, fmt.Errorf("traffic: nil refresher")
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
	if cfg.MaxWeight < 0 || math.IsNaN(cfg.MaxWeight) {
		return nil, fmt.Errorf("traffic: invalid MaxWeight %v", cfg.MaxWeight)
	}
	in := &Ingestor{
		cfg:       cfg,
		sink:      sink,
		refresher: refresher,
		events:    make(chan roadnet.ArcWeightChange, cfg.Queue),
		flushC:    make(chan chan struct{}),
		refresh:   make(chan struct{}, 1),
	}
	in.wg.Add(2)
	go in.coalesceLoop()
	go in.refreshLoop()
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

// validate is the ingestion boundary: it rejects events that could poison a
// snapshot (or, with Topology set, fail a whole batch at apply time).
func (in *Ingestor) validate(ev roadnet.ArcWeightChange) error {
	switch {
	case math.IsNaN(ev.NewCost):
		return &InvalidEventError{Event: ev, Reason: "cost is NaN"}
	case math.IsInf(ev.NewCost, 0):
		return &InvalidEventError{Event: ev, Reason: "cost is infinite"}
	case ev.NewCost < 0:
		return &InvalidEventError{Event: ev, Reason: "cost is negative"}
	case in.cfg.MaxWeight > 0 && ev.NewCost > in.cfg.MaxWeight:
		return &InvalidEventError{Event: ev, Reason: fmt.Sprintf("cost exceeds MaxWeight %v", in.cfg.MaxWeight)}
	}
	if g := in.cfg.Topology; g != nil {
		if !g.ValidNode(ev.From) || !g.ValidNode(ev.To) {
			return &InvalidEventError{Event: ev, Reason: "references unknown node"}
		}
		if _, ok := g.ArcCost(ev.From, ev.To); !ok {
			return &InvalidEventError{Event: ev, Reason: "references nonexistent arc"}
		}
	}
	return nil
}

// Flush applies every event ingested before the call and returns once the
// sink has absorbed them. It does not wait for the refresh worker; tests
// that need the batches published follow with the refresher's own entry
// point (or Close, which waits for everything).
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

// Close drains and applies all accepted events, runs one final refresh and
// stops both goroutines. After Close returns, the sink has seen every event
// and the refresher has caught up with the final snapshot. Ingest and Flush
// return ErrClosed afterwards. Close is idempotent.
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
		Events:          in.events_.Load(),
		Rejected:        in.rejected.Load(),
		Batches:         in.batches.Load(),
		AppliedChanges:  in.applied.Load(),
		ApplyFailures:   in.applyFails.Load(),
		RefreshRuns:     in.refreshRuns.Load(),
		RefreshFailures: in.refreshFail.Load(),
		QueueDepth:      len(in.events),
	}
}

// coalesceLoop is the single goroutine that owns the pending batch: a
// last-write-wins map plus the arcs' first-arrival order, flushed on size,
// delay, explicit Flush, or shutdown.
func (in *Ingestor) coalesceLoop() {
	defer in.wg.Done()
	defer close(in.refresh)

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
		gen, err := in.sink.ApplyWeights(changes)
		if err != nil {
			// Boundary validation makes value errors unreachable here; what
			// remains (unknown arcs without Topology configured) drops the
			// batch and keeps the stream alive.
			in.applyFails.Add(1)
			in.lastErr.Store(&err)
			return
		}
		in.batches.Add(1)
		in.applied.Add(int64(len(changes)))
		if in.cfg.OnApplied != nil {
			in.cfg.OnApplied(changes, gen)
		}
		// Capacity-1 signal: batches applied while a refresh runs fold into
		// one pending run instead of queueing one run each.
		select {
		case in.refresh <- struct{}{}:
		default:
		}
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
			// Drain everything already enqueued so Flush's "every event
			// ingested before the call" promise holds, then apply.
			for {
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
					continue
				default:
				}
				break
			}
			flush()
			close(done)
		}
	}
}

// refreshLoop is the pipelined re-customization worker: one Refresher call
// per pending signal, never more than one in flight, each starting from the
// freshest snapshot.
func (in *Ingestor) refreshLoop() {
	defer in.wg.Done()
	for range in.refresh {
		in.refreshRuns.Add(1)
		if err := in.refresher.RecustomizeNow(); err != nil {
			in.refreshFail.Add(1)
			in.lastErr.Store(&err)
		}
	}
}
