// Package fleet implements the OPAQUE sharded serving tier: a router that
// fronts N directions search servers ("shards") over the multiplexed
// transport and answers obfuscated path queries as if it were a single
// server.
//
// Every query Q(S, T) is answered whole by exactly one shard: the shard
// evaluates the full |S|×|T| table as one many-to-many computation, whose
// target half (the backward sweeps and bucket fills) all sources share, and
// its reply is the router's answer unchanged, byte for byte: the router
// reads only the reply's header (protocol.HeldReply) and relays the encoded
// body to the obfuscator as it arrived, so no candidate path is decoded or
// re-encoded on the way. Execute and ExecuteBatch, the Go API, take the same
// path and return each reply still held (protocol.ServerReply.Held): a
// caller reads the cells it needs with ServerReply.ReadCells or Cell, which
// validate the whole body, or decodes it whole. Every shard holds
// the full replicated road map, so any shard can answer any query; the
// router places whole queries round-robin across the available shards,
// preferring a shard that has applied every weight update the router has
// returned from. The fleet mode does not affect placement.
//
// A reply comes from one shard and one epoch, so it never mixes metrics.
//
// Weight updates flow through the router (UpdateWeights): broadcast to every
// reachable shard, and accumulated as last-write-wins per-arc state that is
// replayed to a shard when it (re)connects — a shard restarting with base
// weights mid-churn converges to the fleet metric before it serves again.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/metrics"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

// Mode names the fleet shape. Both modes place whole queries round-robin;
// the distinction is kept only for configurations that still name it.
type Mode int

const (
	// ModePartition is the zero-value mode.
	ModePartition Mode = iota
	// ModeReplicate places exactly like ModePartition.
	ModeReplicate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePartition:
		return "partition"
	case ModeReplicate:
		return "replicate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Dialer establishes one multiplexed connection to a shard. The router
// redials through it after a connection failure, so it must be safe to call
// repeatedly.
type Dialer func() (*protocol.MuxClient, error)

// Config parameterises a Router.
type Config struct {
	// Mode is the fleet shape (default ModePartition); it does not change
	// placement.
	Mode Mode
	// Partition is accepted and ignored: placement needs no road map.
	Partition *roadnet.Partition
	// Retries is the per-shard transport retry budget: how many times a
	// failed shard call is retried (redialling between attempts) before the
	// shard is declared failed for that query. Default 3.
	Retries int
	// RetryBackoff is the base delay between retry attempts; each attempt
	// doubles it (capped at BackoffCap) and jitters the result uniformly in
	// [d/2, 3d/2). Default 10ms.
	RetryBackoff time.Duration
	// BackoffCap bounds one exponential backoff delay before jitter.
	// Default 16 × RetryBackoff.
	BackoffCap time.Duration
	// RetryTimeCap bounds the total wall-clock one shard call may spend in
	// retry backoff: once exceeded, the call fails with its last error
	// instead of starting another attempt. Default 2s.
	RetryTimeCap time.Duration
	// FailoverRetries is how many times a query that lost a shard (a
	// ShardError after the per-shard retry budget) is placed again. By then
	// the dead shard's breaker has tripped, so the query goes to a surviving
	// shard. Default 2.
	FailoverRetries int
	// FailThreshold is the consecutive-transport-failure count that trips a
	// shard's circuit breaker open. Default 3.
	FailThreshold int
	// BreakerCooldown is how long an open breaker fast-fails connects
	// before letting one half-open probe through. Default 250ms.
	BreakerCooldown time.Duration
	// Heartbeat enables background health probing: every interval each
	// shard is pinged over the mux identity stream (live connections) or
	// re-dialled (down shards, respecting the breaker's half-open gate).
	// 0 disables the prober — health is then tracked from query traffic
	// alone. Heartbeats stop permanently at the router's first Close.
	Heartbeat time.Duration
	// UpdateQuorum is K in "UpdateWeights returns after K of N shards
	// ack": the call blocks until K acknowledgements, leaving stragglers
	// to converge through broadcast completion or reconnect replay.
	// Default 1 (any reachable shard); values above the fleet size clamp
	// to N.
	UpdateQuorum int
	// DefaultDeadline is applied on the router's serving side to requests
	// that carry no deadline of their own: the query must answer within
	// this budget or be dropped. 0 leaves deadline-less requests unbounded.
	DefaultDeadline time.Duration
	// Hello is announced to shards when dialling; Node/Role default to a
	// router identity.
	Hello protocol.Hello
}

// ShardError reports the failure of one shard after the retry budget.
type ShardError struct {
	Shard int
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("fleet: shard %d failed: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ShardError) Unwrap() error { return e.Err }

// shardLink is the router's connection slot for one shard: at most one live
// multiplexed client, redialled (and replayed into) on demand, plus the
// shard's breaker state and the ordered-update bookkeeping.
type shardLink struct {
	idx  int
	dial Dialer

	mu     sync.Mutex
	client *protocol.MuxClient

	// hmu guards health; it is never held across dials or I/O.
	hmu    sync.Mutex
	health shardHealth

	// updMu serialises weight-update sends to this shard. lastUpd is the
	// update sequence the shard has applied every update up to: it is
	// written under updMu after an ack (or a replay), and read without the
	// lock by routeShard.
	updMu   sync.Mutex
	lastUpd atomic.Uint64
}

// arcKey identifies one directed arc in the cumulative weight state.
type arcKey struct {
	from, to roadnet.NodeID
}

// Router fronts a fleet of shards as one logical directions search server.
// It implements obfsvc.QueryExecutor and obfsvc.BatchExecutor, and (via
// HandleMux/ServeMux in serve.go) the serving side of the multiplexed
// transport, so obfuscators target a router exactly like a single server.
type Router struct {
	cfg    Config
	shards []*shardLink

	// Cumulative last-write-wins weight state, replayed to (re)connecting
	// shards so a restarted shard converges to the fleet metric before the
	// router sends it queries. latest holds the current cost per touched
	// arc; order preserves first-touch order for deterministic replay. seq
	// numbers every recorded update — assigned under wmu, so sequence order
	// equals fold order and a per-shard send that observes a gap can be
	// upgraded to a full snapshot.
	wmu    sync.Mutex
	latest map[arcKey]float64
	order  []arcKey
	seq    uint64
	// umu orders UpdateWeights calls from their fold until the first shard
	// answers, so a refused update is taken back out of the replay state
	// before any later update can be folded over it.
	umu sync.Mutex

	batchID atomic.Uint64
	rr      atomic.Uint64 // round-robin placement cursor

	// quiesce interrupts in-flight retry backoff sleeps; Close closes the
	// current channel and installs a fresh one, so the router stays usable
	// (connections redial on demand) while no sleeper outlives a quiesce.
	qmu     sync.Mutex
	quiesce chan struct{}

	// hbStop ends the heartbeat probers (one goroutine per shard when
	// Config.Heartbeat > 0) at the first Close.
	hbStop chan struct{}
	hbOnce sync.Once

	metrics *metrics.Registry
	// Pre-resolved counters.
	mQueries        *metrics.Counter
	mSubqueries     *metrics.Counter
	mRetries        *metrics.Counter
	mFailures       *metrics.Counter
	mDegraded       *metrics.Counter
	mWeightUpd      *metrics.Counter
	mReplays        *metrics.Counter
	mFailovers      *metrics.Counter
	mBreakerTrips   *metrics.Counter
	mHeartbeatFails *metrics.Counter
	mDeadlineDrops  *metrics.Counter
}

// New builds a router over one Dialer per shard.
func New(cfg Config, dialers []Dialer) (*Router, error) {
	if len(dialers) == 0 {
		return nil, fmt.Errorf("fleet: need at least one shard dialer")
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 16 * cfg.RetryBackoff
	}
	if cfg.RetryTimeCap <= 0 {
		cfg.RetryTimeCap = 2 * time.Second
	}
	if cfg.FailoverRetries <= 0 {
		cfg.FailoverRetries = 2
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 250 * time.Millisecond
	}
	if cfg.UpdateQuorum <= 0 {
		cfg.UpdateQuorum = 1
	}
	if cfg.UpdateQuorum > len(dialers) {
		cfg.UpdateQuorum = len(dialers)
	}
	if cfg.Hello.Role == "" {
		cfg.Hello.Role = "router"
	}
	r := &Router{
		cfg:     cfg,
		latest:  make(map[arcKey]float64),
		quiesce: make(chan struct{}),
		hbStop:  make(chan struct{}),
		metrics: metrics.NewRegistry(),
	}
	r.mQueries = r.metrics.CounterVar("fleet_queries")
	r.mSubqueries = r.metrics.CounterVar("fleet_subqueries")
	r.mRetries = r.metrics.CounterVar("fleet_shard_retries")
	r.mFailures = r.metrics.CounterVar("fleet_shard_failures")
	r.mDegraded = r.metrics.CounterVar("fleet_degraded_replies")
	r.mWeightUpd = r.metrics.CounterVar("fleet_weight_updates")
	r.mReplays = r.metrics.CounterVar("fleet_replays")
	r.mFailovers = r.metrics.CounterVar("fleet_failovers")
	r.mBreakerTrips = r.metrics.CounterVar("fleet_breaker_trips")
	r.mHeartbeatFails = r.metrics.CounterVar("fleet_heartbeat_failures")
	r.mDeadlineDrops = r.metrics.CounterVar("fleet_deadline_exceeded")
	for i, d := range dialers {
		if d == nil {
			return nil, fmt.Errorf("fleet: nil dialer for shard %d", i)
		}
		r.shards = append(r.shards, &shardLink{idx: i, dial: d})
		r.setStateGauge(i, ShardUp)
	}
	if cfg.Heartbeat > 0 {
		for _, l := range r.shards {
			go r.heartbeatLoop(l)
		}
	}
	return r, nil
}

// NumShards returns the fleet size.
func (r *Router) NumShards() int { return len(r.shards) }

// Metrics returns the router's instrumentation registry.
func (r *Router) Metrics() *metrics.Registry { return r.metrics }

// Close tears down every shard connection and interrupts every in-flight
// retry backoff sleep. The router can still be used afterwards — connections
// redial on demand and a fresh quiesce channel is installed — so Close is a
// quiesce, not a shutdown; only the heartbeat probers (if any) stop
// permanently at the first Close.
func (r *Router) Close() {
	r.hbOnce.Do(func() { close(r.hbStop) })
	r.qmu.Lock()
	close(r.quiesce)
	r.quiesce = make(chan struct{})
	r.qmu.Unlock()
	for _, l := range r.shards {
		l.mu.Lock()
		if l.client != nil {
			l.client.Close()
			l.client = nil
		}
		l.mu.Unlock()
	}
}

// connect returns the shard's live client, dialling (and replaying the
// cumulative weight state into the shard) if needed. While the shard's
// breaker is open and cooling the call fails fast with errShardDown; once
// the cooldown elapses the dial itself is the half-open probe, and success
// (dial + replay) closes the breaker.
func (r *Router) connect(l *shardLink) (*protocol.MuxClient, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.client != nil && l.client.Err() == nil {
		return l.client, nil
	}
	l.client = nil
	if !r.probeAllowed(l) {
		return nil, errShardDown
	}
	c, err := l.dial()
	if err != nil {
		r.noteFailure(l)
		return nil, err
	}
	if err := r.replayTo(l, c); err != nil {
		c.Close()
		r.noteFailure(l)
		return nil, fmt.Errorf("replaying weight state: %w", err)
	}
	l.client = c
	r.noteSuccess(l)
	return c, nil
}

// dropClient forgets a failed client so the next attempt redials. Only the
// exact client that failed is dropped — a concurrent redial's fresh client
// stays.
func (l *shardLink) dropClient(c *protocol.MuxClient) {
	l.mu.Lock()
	if l.client == c {
		l.client = nil
	}
	l.mu.Unlock()
	c.Close()
}

// snapshotUpdate builds one WeightUpdate carrying the whole cumulative
// last-write-wins state and the sequence it covers (every recorded update up
// to and including seq).
func (r *Router) snapshotUpdate() (protocol.WeightUpdate, uint64) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	changes := make([]roadnet.ArcWeightChange, len(r.order))
	for i, k := range r.order {
		changes[i] = roadnet.ArcWeightChange{From: k.from, To: k.to, NewCost: r.latest[k]}
	}
	return protocol.WeightUpdate{UpdateID: r.seq, Changes: changes}, r.seq
}

// replayTo brings a freshly connected shard up to the fleet's cumulative
// weight state. A shard that restarted with base weights receives every arc
// the fleet has touched (last-write-wins, one WeightUpdate) before the
// router admits it; a shard that never died receives an update it has
// already applied, which is idempotent.
func (r *Router) replayTo(l *shardLink, c *protocol.MuxClient) error {
	upd, seq := r.snapshotUpdate()
	if len(upd.Changes) == 0 {
		return nil
	}
	res, err := c.Do(upd)
	if err != nil {
		return err
	}
	if _, ok := res.(protocol.WeightUpdateAck); !ok {
		return fmt.Errorf("fleet: unexpected replay reply %T", res)
	}
	l.updMu.Lock()
	if seq > l.lastUpd.Load() {
		l.lastUpd.Store(seq)
	}
	l.updMu.Unlock()
	r.mReplays.Add(1)
	return nil
}

// record folds changes into the cumulative last-write-wins replay state and
// assigns the update's sequence number; sequence order equals fold order
// because both happen under wmu. undo takes the fold back out, leaving the
// sequence number to name an empty update; it is exact only while no later
// update has been recorded, which UpdateWeights ensures by holding umu.
func (r *Router) record(changes []roadnet.ArcWeightChange) (seq uint64, undo func()) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	firstNew := len(r.order)
	prior := make(map[arcKey]float64, len(changes))
	for _, c := range changes {
		k := arcKey{from: c.From, to: c.To}
		if old, seen := r.latest[k]; !seen {
			r.order = append(r.order, k)
		} else if _, kept := prior[k]; !kept {
			prior[k] = old
		}
		r.latest[k] = c.NewCost
	}
	r.seq++
	return r.seq, func() {
		r.wmu.Lock()
		defer r.wmu.Unlock()
		for k, old := range prior {
			r.latest[k] = old
		}
		// Arcs this update touched first leave the state altogether (a
		// prior entry for one holds a value from earlier in the same update).
		for _, k := range r.order[firstNew:] {
			delete(r.latest, k)
		}
		r.order = r.order[:firstNew]
	}
}

// sendUpdate delivers one weight update to one shard, keeping what the shard
// has applied a prefix of the update sequence: sends are serialised on the
// link's updMu; an update the shard already holds (a snapshot covered it) is
// not sent again; and an update that would leave a gap (possible once
// UpdateWeights returns at quorum while stragglers run on, so a newer
// broadcast can overtake an older one) is upgraded to a full cumulative
// snapshot, which is last-write-wins and idempotent.
func (r *Router) sendUpdate(l *shardLink, seq uint64, changes []roadnet.ArcWeightChange) error {
	c, err := r.connect(l)
	if err != nil {
		return err
	}
	// The send itself runs under updMu; failure handling (dropClient takes
	// l.mu) happens outside, keeping the lock order l.mu → updMu acyclic
	// with connect's replay path.
	err = func() error {
		l.updMu.Lock()
		defer l.updMu.Unlock()
		applied := l.lastUpd.Load()
		if seq <= applied {
			return nil
		}
		upd := protocol.WeightUpdate{UpdateID: seq, Changes: changes}
		if seq != applied+1 {
			upd, seq = r.snapshotUpdate()
		}
		res, err := c.Do(upd)
		if err != nil {
			return err
		}
		if _, ok := res.(protocol.WeightUpdateAck); !ok {
			return fmt.Errorf("unexpected ack type %T", res)
		}
		l.lastUpd.Store(seq)
		return nil
	}()
	if err != nil {
		if !isRemoteError(err) {
			r.noteFailure(l)
			l.dropClient(c)
		}
		return err
	}
	r.noteSuccess(l)
	return nil
}

// UpdateWeights applies live weight changes fleet-wide: the cumulative
// replay state is folded first (so even a shard that is down right now
// converges on reconnect), then the update is broadcast to every shard in
// parallel and the call returns once Config.UpdateQuorum shards have
// acknowledged it. Broadcasts past the quorum finish in the background —
// their per-shard sends stay ordered, and a shard none of them reached
// converges through replay on its next connect. With the default quorum of
// 1 the error return is non-nil only when *no* shard could be updated or
// reached; a larger quorum that some but not all shards met reports
// ErrQuorumNotReached.
//
// A refused update leaves no trace: a cost roadnet.CheckCost rejects fails
// here, before the fold, and an update whose content the first shard to
// answer refuses (an unknown node or nonexistent arc, which only a shard's
// map can tell; protocol.IsUpdateRefused) is taken back out of the replay
// state. A shard refuses such an update before applying any of it, and
// every shard validates against the one road map the fleet serves, so one
// shard's refusal holds for all. Any other failure keeps the fold: the
// shard, or its peers, may have applied the update.
func (r *Router) UpdateWeights(changes []roadnet.ArcWeightChange) error {
	if len(changes) == 0 {
		return nil
	}
	for _, c := range changes {
		if err := roadnet.CheckCost(c.NewCost); err != nil {
			return fmt.Errorf("fleet: weight change %d→%d has invalid cost %v: %w", c.From, c.To, c.NewCost, err)
		}
	}
	r.umu.Lock()
	seq, undo := r.record(changes)
	r.mWeightUpd.Add(1)
	n := len(r.shards)
	results := make(chan error, n)
	for _, l := range r.shards {
		go func(l *shardLink) {
			err := r.sendUpdate(l, seq, changes)
			if err != nil {
				r.mFailures.Add(1)
			}
			results <- err
		}(l)
	}
	acks, failed := 0, 0
	var last error
	// Until a shard acknowledges, the fold may still have to be undone: a
	// shard refuses the content of the update itself or of a connect's
	// replay of the state that already holds it. Every other failure, a
	// transport failure or a shard that failed after applying the update,
	// leaves the fold for the replay.
	for acks+failed < n {
		err := <-results
		if err == nil {
			acks++
			break
		}
		if protocol.IsUpdateRefused(err) {
			undo()
			r.umu.Unlock()
			return fmt.Errorf("fleet: %w", err)
		}
		failed++
		last = err
	}
	r.umu.Unlock()
	quorum := r.cfg.UpdateQuorum
	for acks < quorum && acks+failed < n {
		if err := <-results; err != nil {
			failed++
			last = err
		} else {
			acks++
		}
	}
	if acks >= quorum {
		return nil
	}
	if acks == 0 {
		return fmt.Errorf("fleet: weight update reached no shard: %w", last)
	}
	return fmt.Errorf("%w: %d of %d acks (need %d), last failure: %v", ErrQuorumNotReached, acks, n, quorum, last)
}

// isRemoteError reports whether err is a handler-level failure (the
// connection stays healthy) rather than a transport failure.
func isRemoteError(err error) bool {
	var re *protocol.RemoteError
	return errors.As(err, &re)
}

// withShard runs one exchange (do) on one shard's connection under the retry
// budget: transport failures drop the connection, count against the shard's
// breaker, redial and retry (counted in fleet_shard_retries) behind a
// jittered exponential backoff that the router's Close and the request
// deadline both interrupt; handler-level failures (and a *ShardError from do
// itself) return immediately — the shard answered, retrying the same request
// cannot help. An open breaker fails the call fast so the caller can fail
// over instead of burning its retry budget on a corpse. Total in-retry wall
// time is capped by Config.RetryTimeCap.
func (r *Router) withShard(idx int, deadline time.Time, do func(c *protocol.MuxClient) error) error {
	l := r.shards[idx]
	var lastErr error
	start := time.Now()
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			if time.Since(start) > r.cfg.RetryTimeCap {
				break
			}
			r.mRetries.Add(1)
			if err := r.sleep(backoffDelay(attempt, r.cfg.RetryBackoff, r.cfg.BackoffCap), deadline); err != nil {
				lastErr = err
				break
			}
		}
		c, err := r.connect(l)
		if err != nil {
			lastErr = err
			if errors.Is(err, errShardDown) {
				break // circuit open: every retry would fast-fail the same way
			}
			continue
		}
		err = do(c)
		if err == nil {
			r.noteSuccess(l)
			return nil
		}
		var se *ShardError
		if errors.As(err, &se) {
			return err
		}
		if isRemoteError(err) {
			return &ShardError{Shard: idx, Err: err}
		}
		lastErr = err
		r.noteFailure(l)
		l.dropClient(c)
		if protocol.IsDeadlineExceeded(err) {
			break // no time left for another attempt
		}
	}
	r.mFailures.Add(1)
	return &ShardError{Shard: idx, Err: lastErr}
}

// callShard sends one query to one shard and holds its reply (see
// withShard).
func (r *Router) callShard(idx int, q protocol.ServerQuery, deadline time.Time) (res protocol.HeldReply, err error) {
	err = r.withShard(idx, deadline, func(c *protocol.MuxClient) (err error) {
		res, err = c.DoHeld(q, deadline)
		return err
	})
	return res, err
}

// place picks the one shard that answers a query whole: the next shard in
// round-robin order, adjusted for health and update lag by routeShard.
func (r *Router) place() int {
	n := len(r.shards)
	return r.routeShard(int(r.rr.Add(1)-1) % n)
}

// routeShard returns the shard that should actually receive work addressed
// to preferred: scanning from preferred, the first available shard among
// those that have applied the most weight updates. A shard acknowledges an
// update only once it holds every earlier one too (see sendUpdate), so the
// chosen shard has applied every update any returned UpdateWeights covered,
// and a query placed after UpdateWeights returns is answered on the updated
// metric even when the update quorum let a straggler lag. A down preferred
// shard's work moving elsewhere counts on fleet_failovers; this is
// answer-preserving because every shard holds the full replicated road map.
// With no shard available the preferred one is returned and the call fails
// on it honestly.
func (r *Router) routeShard(preferred int) int {
	n := len(r.shards)
	best := -1
	var bestSeq uint64
	preferredUp := false
	for k := 0; k < n; k++ {
		idx := (preferred + k) % n
		l := r.shards[idx]
		if !r.available(l) {
			continue
		}
		preferredUp = preferredUp || k == 0
		if seq := l.lastUpd.Load(); best < 0 || seq > bestSeq {
			best, bestSeq = idx, seq
		}
	}
	if best < 0 {
		return preferred
	}
	if !preferredUp {
		r.mFailovers.Add(1)
	}
	return best
}

// Execute answers one obfuscated query through the fleet; it implements
// obfsvc.QueryExecutor.
func (r *Router) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	return r.ExecuteDeadline(q, time.Time{})
}

// ExecuteDeadline is Execute bounded by an absolute deadline (zero = none)
// that rides in every shard request and cuts retry backoff short. Queries
// that lost a shard (a transport-level ShardError after the per-shard budget
// — by which point the shard's breaker has tripped) are placed again up to
// Config.FailoverRetries times, landing on a surviving shard.
//
// The placed shard's reply is the whole answer, and it is returned held as
// it arrived: the router reads its header only, and the mux handler
// forwards its bytes unchanged. A shard failure after the per-shard retry
// budget fails the attempt with its ShardError.
func (r *Router) ExecuteDeadline(q protocol.ServerQuery, deadline time.Time) (protocol.ServerReply, error) {
	r.mQueries.Add(1)
	failLeft := r.cfg.FailoverRetries
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := r.sleep(backoffDelay(attempt, r.cfg.RetryBackoff, r.cfg.BackoffCap), deadline); err != nil {
				if errors.Is(err, protocol.ErrDeadlineExceeded) {
					r.mDeadlineDrops.Add(1)
				}
				return protocol.ServerReply{}, err
			}
		}
		r.mSubqueries.Add(1)
		reply, err := r.callShard(r.place(), q, deadline)
		if err == nil {
			if reply.Degraded {
				r.mDegraded.Add(1)
			}
			return reply.Reply(), nil
		}
		switch {
		case protocol.IsDeadlineExceeded(err):
			// No budget left anywhere; retrying cannot beat the clock.
			r.mDeadlineDrops.Add(1)
			return protocol.ServerReply{}, err
		case errors.Is(err, ErrRouterClosed):
			// Close quiesced the router mid-query; a failover retry would
			// sleep against the fresh quiesce channel instead of returning.
			return protocol.ServerReply{}, err
		case isFailoverable(err):
			if failLeft == 0 {
				return protocol.ServerReply{}, err
			}
			failLeft--
		default:
			return protocol.ServerReply{}, err
		}
	}
}

// isFailoverable reports whether a query error is worth placing the query
// again: a shard failed at the transport level (dial or connection loss), so
// a new placement — consulting the now-tripped breaker — can route it to a
// surviving shard. Handler-level failures are not retried: the shard
// answered, and every replica would answer the same.
func isFailoverable(err error) bool {
	var se *ShardError
	return errors.As(err, &se) && !isRemoteError(se.Err)
}

// ExecuteBatch answers a whole batch through the fleet; it implements
// obfsvc.BatchExecutor. Every query of the batch is placed on one shard and
// each shard's queries travel as one streaming BatchQuery — one round of
// frames per shard for the whole batch, not one per query. Queries that
// failed fall back to the per-query Execute path with its own retry and
// failover budgets, so one sick shard degrades the queries placed on it
// without poisoning the batch. Shard replies are returned held as they
// arrived, as ExecuteDeadline returns them; the mux handler relays them so.
func (r *Router) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	return r.ExecuteBatchDeadline(qs, time.Time{})
}

// ExecuteBatchDeadline is ExecuteBatch bounded by an absolute deadline
// (zero = none) threaded through every per-shard batch and fallback query.
func (r *Router) ExecuteBatchDeadline(qs []protocol.ServerQuery, deadline time.Time) ([]protocol.ServerReply, []error) {
	replies := make([]protocol.ServerReply, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return replies, errs
	}
	r.mQueries.Add(int64(len(qs)))
	r.mSubqueries.Add(int64(len(qs)))

	// Place every query and group the queries (and their batch positions)
	// by shard.
	batches := make([][]protocol.ServerQuery, len(r.shards))
	slots := make([][]int, len(r.shards))
	for qi, q := range qs {
		shard := r.place()
		batches[shard] = append(batches[shard], q)
		slots[shard] = append(slots[shard], qi)
	}

	// One streaming batch per shard, in parallel. Every query sits in
	// exactly one shard's batch, so the goroutines write disjoint slots.
	var wg sync.WaitGroup
	for shard, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, batch []protocol.ServerQuery, slots []int) {
			defer wg.Done()
			held, itemErrs, err := r.callShardBatch(shard, batch, deadline)
			for i, qi := range slots {
				switch {
				case err != nil:
					errs[qi] = err
				case itemErrs[i] != "":
					errs[qi] = &ShardError{Shard: shard, Err: errors.New(itemErrs[i])}
				default:
					replies[qi] = held[i].Reply()
				}
			}
		}(shard, batch, slots[shard])
	}
	wg.Wait()

	// Anything that did not answer cleanly retries through the per-query
	// path.
	for qi, q := range qs {
		if errs[qi] == nil {
			if replies[qi].Degraded {
				r.mDegraded.Add(1)
			}
			continue
		}
		// ExecuteDeadline bumps fleet_queries itself; this retry is a
		// continuation of an already-counted query, so compensate.
		r.mQueries.Add(-1)
		replies[qi], errs[qi] = r.ExecuteDeadline(q, deadline)
	}
	return replies, errs
}

// callShardBatch sends one shard its whole share of a batch as one streaming
// exchange (see withShard) and holds the replies; failed queries have their
// error message at the same index.
func (r *Router) callShardBatch(idx int, batch []protocol.ServerQuery, deadline time.Time) (replies []protocol.HeldReply, errs []string, err error) {
	b := protocol.BatchQuery{BatchID: r.batchID.Add(1), Queries: batch}
	err = r.withShard(idx, deadline, func(c *protocol.MuxClient) (err error) {
		replies, errs, err = c.DoBatchHeld(b, deadline)
		return err
	})
	return replies, errs, err
}
