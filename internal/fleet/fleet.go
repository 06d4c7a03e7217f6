// Package fleet implements the OPAQUE sharded serving tier: a router that
// fronts N directions search servers ("shards") over the multiplexed
// transport and answers obfuscated path queries as if it were a single
// server.
//
// Two fleet shapes are supported. In partition mode every shard holds the
// full replicated road map, but each spatial partition cell (roadnet.
// Partition) is *owned* by exactly one shard: a query Q(S, T) is split by
// the cell ownership of its sources, each shard evaluates the partial
// distance table for the sources it owns (against all destinations), and
// the router stitches the partial tables back together in source-major
// order. Because every shard searches the same complete graph, the merged
// table is exactly the single-server answer — ownership controls work
// placement and cache locality (a shard re-customizes and keeps hot the
// cells its traffic concentrates in), not reachability. In replicate mode
// whole queries round-robin across shards.
//
// The merge is refused unless every partial table was computed under the
// same metric: replies carry the shard's weight-content checksum
// (protocol.ServerReply.ContentSum) and echoed profile, and the router
// requires all partials of one query to agree on a nonzero checksum and on
// the profile. A disagreement — one shard published a weight update the
// other has not, or a partial of unknown identity — counts as
// fleet_generation_skew (or fleet_profile_skew), and the query retries
// after a short backoff rather than ever serving a mixed-metric table.
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

// Mode selects how the router spreads queries across shards.
type Mode int

const (
	// ModePartition splits each query's sources by partition-cell ownership;
	// every shard answers the partial table for the sources it owns.
	ModePartition Mode = iota
	// ModeReplicate round-robins whole queries across shards.
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
	// Mode is the fleet shape (default ModePartition).
	Mode Mode
	// Partition assigns road-map nodes to spatial cells; required in
	// partition mode with more than one shard.
	Partition *roadnet.Partition
	// CellOwner maps partition cell → shard index. Nil assigns cells
	// round-robin (cell c → shard c mod N).
	CellOwner []int
	// Retries is the per-shard transport retry budget: how many times a
	// failed subquery is retried (redialling between attempts) before the
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
	// SkewRetries is how many times a query whose partial tables disagreed
	// on the metric identity is retried whole before failing. Default 5 —
	// skew is transient by construction (shards converge via update
	// broadcast and reconnect replay), so retrying is almost always enough.
	SkewRetries int
	// FailoverRetries is how many times a query that lost a shard (a
	// ShardError after the per-shard retry budget) is re-scattered whole.
	// By then the dead shard's breaker has tripped, so the re-scatter
	// routes its work to surviving shards — replicate mode picks another
	// replica, partition mode temporarily re-owns the cells. Default 2.
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

// Skew errors: the partial tables of one query disagreed on the metric they
// were computed under, and the retry budget did not outlast the skew.
var (
	// ErrGenerationSkew reports partial tables with differing (or unknown)
	// weight-content checksums.
	ErrGenerationSkew = errors.New("fleet: generation skew across partial tables")
	// ErrProfileSkew reports a partial table echoing the wrong weight
	// profile.
	ErrProfileSkew = errors.New("fleet: profile skew across partial tables")
)

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

	// updMu serialises weight-update sends to this shard; lastUpd is the
	// highest update sequence delivered. An update arriving out of order
	// (a quorum return let a newer broadcast overtake it) is upgraded to a
	// full cumulative snapshot instead of regressing arcs the newer delta
	// did not touch.
	updMu   sync.Mutex
	lastUpd uint64
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

	batchID atomic.Uint64
	rr      atomic.Uint64 // replicate-mode round-robin cursor

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
	// Pre-resolved counters; fleet_generation_skew is the metric the
	// acceptance criteria pin — every refused merge shows up there.
	mQueries        *metrics.Counter
	mSubqueries     *metrics.Counter
	mGenSkew        *metrics.Counter
	mProfSkew       *metrics.Counter
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
	if cfg.Mode == ModePartition && len(dialers) > 1 && cfg.Partition == nil {
		return nil, fmt.Errorf("fleet: partition mode with %d shards needs a Partition", len(dialers))
	}
	if cfg.CellOwner != nil && cfg.Partition != nil && len(cfg.CellOwner) != cfg.Partition.NumCells() {
		return nil, fmt.Errorf("fleet: CellOwner has %d entries for %d cells", len(cfg.CellOwner), cfg.Partition.NumCells())
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
	if cfg.SkewRetries <= 0 {
		cfg.SkewRetries = 5
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
	r.mGenSkew = r.metrics.CounterVar("fleet_generation_skew")
	r.mProfSkew = r.metrics.CounterVar("fleet_profile_skew")
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
	if seq > l.lastUpd {
		l.lastUpd = seq
	}
	l.updMu.Unlock()
	r.mReplays.Add(1)
	return nil
}

// record folds changes into the cumulative last-write-wins replay state and
// assigns the update's sequence number; sequence order equals fold order
// because both happen under wmu.
func (r *Router) record(changes []roadnet.ArcWeightChange) uint64 {
	r.wmu.Lock()
	for _, c := range changes {
		k := arcKey{from: c.From, to: c.To}
		if _, seen := r.latest[k]; !seen {
			r.order = append(r.order, k)
		}
		r.latest[k] = c.NewCost
	}
	r.seq++
	seq := r.seq
	r.wmu.Unlock()
	return seq
}

// sendUpdate delivers one weight update to one shard, keeping per-shard
// delivery ordered: sends are serialised on the link's updMu, and a delta
// that a newer broadcast already overtook (possible once UpdateWeights
// returns at quorum while stragglers run on) is upgraded to a full
// cumulative snapshot — last-write-wins and idempotent — instead of
// regressing arcs the newer delta did not touch.
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
		upd := protocol.WeightUpdate{UpdateID: seq, Changes: changes}
		if seq < l.lastUpd {
			upd, seq = r.snapshotUpdate()
		}
		res, err := c.Do(upd)
		if err != nil {
			return err
		}
		if _, ok := res.(protocol.WeightUpdateAck); !ok {
			return fmt.Errorf("unexpected ack type %T", res)
		}
		if seq > l.lastUpd {
			l.lastUpd = seq
		}
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
func (r *Router) UpdateWeights(changes []roadnet.ArcWeightChange) error {
	if len(changes) == 0 {
		return nil
	}
	seq := r.record(changes)
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
	quorum := r.cfg.UpdateQuorum
	acks, failed := 0, 0
	var last error
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

// callShard performs one unary request on one shard (see withShard).
func (r *Router) callShard(idx int, msg any, deadline time.Time) (res any, err error) {
	err = r.withShard(idx, deadline, func(c *protocol.MuxClient) (err error) {
		res, err = c.DoDeadline(msg, deadline)
		return err
	})
	return res, err
}

// subquery is one shard's share of a scattered query: the source rows it
// owns (in their original relative order) and their global positions.
type subquery struct {
	shard   int
	sources []roadnet.NodeID
	global  []int
}

// scatter splits q by shard ownership, consulting shard health. Partition
// mode groups sources by the (healthy) owner of their partition cell;
// replicate mode (and a one-shard fleet) assigns the whole query to the next
// available shard in round-robin order.
func (r *Router) scatter(q protocol.ServerQuery) []subquery {
	n := len(r.shards)
	if n == 1 || r.cfg.Mode == ModeReplicate {
		idx := r.routeShard(int(r.rr.Add(1)-1) % n)
		all := make([]int, len(q.Sources))
		for i := range all {
			all[i] = i
		}
		return []subquery{{shard: idx, sources: q.Sources, global: all}}
	}
	bySh := make(map[int]*subquery, n)
	order := make([]*subquery, 0, n)
	for gi, src := range q.Sources {
		shard := r.routeShard(r.ownerOf(src))
		sub, ok := bySh[shard]
		if !ok {
			sub = &subquery{shard: shard}
			bySh[shard] = sub
			order = append(order, sub)
		}
		sub.sources = append(sub.sources, src)
		sub.global = append(sub.global, gi)
	}
	out := make([]subquery, len(order))
	for i, sub := range order {
		out[i] = *sub
	}
	return out
}

// ownerOf resolves the shard owning a node's partition cell.
func (r *Router) ownerOf(v roadnet.NodeID) int {
	cell := r.cfg.Partition.CellOf(v)
	if r.cfg.CellOwner != nil {
		return r.cfg.CellOwner[cell] % len(r.shards)
	}
	return cell % len(r.shards)
}

// routeShard returns the shard that should actually receive work addressed
// to preferred: preferred itself while it is available, else the next
// available shard — in partition mode this temporarily re-owns the down
// shard's cells, which is answer-preserving because every shard holds the
// full replicated road map (ownership is work placement, not reachability).
// Ownership restores by construction when the preferred shard's breaker
// closes again. With no shard available the preferred one is returned and
// the call fails on it honestly.
func (r *Router) routeShard(preferred int) int {
	if r.available(r.shards[preferred]) {
		return preferred
	}
	n := len(r.shards)
	for k := 1; k < n; k++ {
		idx := (preferred + k) % n
		if r.available(r.shards[idx]) {
			r.mFailovers.Add(1)
			return idx
		}
	}
	return preferred
}

// checkIdentity verifies that every partial reply of one query was computed
// under one metric: all ContentSums equal and nonzero (zero = the shard
// could not pin a stable identity, which the router must treat as skew) and
// every echoed profile matching the query's. Counted per refusal.
func (r *Router) checkIdentity(q protocol.ServerQuery, replies []protocol.ServerReply) error {
	for _, rep := range replies {
		if rep.Profile != q.Profile {
			r.mProfSkew.Add(1)
			return fmt.Errorf("%w: reply under profile %q, query under %q", ErrProfileSkew, rep.Profile, q.Profile)
		}
	}
	sum := replies[0].ContentSum
	for _, rep := range replies[1:] {
		if rep.ContentSum != sum {
			r.mGenSkew.Add(1)
			return fmt.Errorf("%w: content checksums %x != %x", ErrGenerationSkew, rep.ContentSum, sum)
		}
	}
	if sum == 0 && len(replies) > 1 {
		// With a single partial there is nothing to mix; with several, an
		// unknown identity cannot be proven consistent with the others.
		r.mGenSkew.Add(1)
		return fmt.Errorf("%w: partial table with unknown identity", ErrGenerationSkew)
	}
	return nil
}

// merge stitches the partial tables back into the single-server reply:
// source-major, destinations in query order, rows ordered by the sources'
// global positions. Every shard searched the full graph, so concatenation
// (not minimisation) is exact.
func (r *Router) merge(q protocol.ServerQuery, subs []subquery, replies []protocol.ServerReply) (protocol.ServerReply, error) {
	if err := r.checkIdentity(q, replies); err != nil {
		return protocol.ServerReply{}, err
	}
	if len(subs) == 1 {
		// Whole query on one shard: the reply already is the answer.
		return replies[0], nil
	}
	nT := len(q.Dests)
	merged := protocol.ServerReply{
		QueryID:    q.QueryID,
		ContentSum: replies[0].ContentSum,
		Profile:    q.Profile,
		Paths:      make([]protocol.CandidatePath, len(q.Sources)*nT),
	}
	for si, sub := range subs {
		rep := replies[si]
		if len(rep.Paths) != len(sub.sources)*nT {
			return protocol.ServerReply{}, &ShardError{Shard: sub.shard, Err: fmt.Errorf("fleet: partial table has %d candidates for %d×%d", len(rep.Paths), len(sub.sources), nT)}
		}
		merged.SettledNodes += rep.SettledNodes
		merged.PageFaults += rep.PageFaults
		merged.Degraded = merged.Degraded || rep.Degraded
		for j, gi := range sub.global {
			copy(merged.Paths[gi*nT:(gi+1)*nT], rep.Paths[j*nT:(j+1)*nT])
		}
	}
	// Generation numbers are per-shard and not comparable across a merged
	// table; the content checksum is the fleet-wide identity.
	merged.Generation = 0
	return merged, nil
}

// executeOnce scatters q, gathers the partial tables and merges them. All
// subqueries run in parallel; a shard failure after the retry budget fails
// the query with its ShardError.
func (r *Router) executeOnce(q protocol.ServerQuery, deadline time.Time) (protocol.ServerReply, error) {
	subs := r.scatter(q)
	r.mSubqueries.Add(int64(len(subs)))
	replies := make([]protocol.ServerReply, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub subquery) {
			defer wg.Done()
			sq := protocol.ServerQuery{
				QueryID:      q.QueryID,
				Sources:      sub.sources,
				Dests:        q.Dests,
				Profile:      q.Profile,
				DistanceOnly: q.DistanceOnly,
			}
			res, err := r.callShard(sub.shard, sq, deadline)
			if err != nil {
				errs[i] = err
				return
			}
			rep, ok := res.(protocol.ServerReply)
			if !ok {
				errs[i] = &ShardError{Shard: sub.shard, Err: fmt.Errorf("fleet: unexpected reply type %T", res)}
				return
			}
			replies[i] = rep
		}(i, sub)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return protocol.ServerReply{}, err
		}
	}
	return r.merge(q, subs, replies)
}

// Execute answers one obfuscated query through the fleet; it implements
// obfsvc.QueryExecutor.
func (r *Router) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	return r.ExecuteDeadline(q, time.Time{})
}

// ExecuteDeadline is Execute bounded by an absolute deadline (zero = none)
// that rides in every shard sub-request and cuts retry backoff short.
// Queries refused for metric skew retry whole (the scatter re-runs, picking
// up converged shards) up to Config.SkewRetries times; queries that lost a
// shard (a transport-level ShardError after the per-shard budget — by which
// point the shard's breaker has tripped) re-scatter up to
// Config.FailoverRetries times, routing the dead shard's work to survivors.
func (r *Router) ExecuteDeadline(q protocol.ServerQuery, deadline time.Time) (protocol.ServerReply, error) {
	r.mQueries.Add(1)
	skewLeft := r.cfg.SkewRetries
	failLeft := r.cfg.FailoverRetries
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := r.sleep(backoffDelay(attempt, r.cfg.RetryBackoff, r.cfg.BackoffCap), deadline); err != nil {
				if errors.Is(err, protocol.ErrDeadlineExceeded) {
					r.mDeadlineDrops.Add(1)
				}
				return protocol.ServerReply{}, err
			}
		}
		reply, err := r.executeOnce(q, deadline)
		if err == nil {
			if reply.Degraded {
				r.mDegraded.Add(1)
			}
			return reply, nil
		}
		lastErr = err
		switch {
		case protocol.IsDeadlineExceeded(err):
			// No budget left anywhere; retrying cannot beat the clock.
			r.mDeadlineDrops.Add(1)
			return protocol.ServerReply{}, err
		case errors.Is(err, ErrRouterClosed):
			// Close quiesced the router mid-query; a failover retry would
			// sleep against the fresh quiesce channel instead of returning.
			return protocol.ServerReply{}, err
		case errors.Is(err, ErrGenerationSkew) || errors.Is(err, ErrProfileSkew):
			if skewLeft == 0 {
				return protocol.ServerReply{}, lastErr
			}
			skewLeft--
		case isFailoverable(err):
			if failLeft == 0 {
				return protocol.ServerReply{}, lastErr
			}
			failLeft--
		default:
			return protocol.ServerReply{}, err
		}
	}
}

// isFailoverable reports whether a query error is worth a whole-query
// re-scatter: a shard failed at the transport level (dial or connection
// loss), so a re-scatter — consulting the now-tripped breaker — can route
// its work to a surviving shard. Handler-level failures are not retried:
// the shard answered, and every replica would answer the same.
func isFailoverable(err error) bool {
	var se *ShardError
	return errors.As(err, &se) && !isRemoteError(se.Err)
}

// ExecuteBatch answers a whole batch through the fleet; it implements
// obfsvc.BatchExecutor. Every query of the batch is scattered and the
// per-shard shares travel as one streaming BatchQuery per shard — one
// round of frames per shard for the whole batch, not one per subquery.
// Queries whose gather failed (shard failure or metric skew) fall back to
// the per-query Execute path with its own retry and failover budgets, so one
// sick shard degrades the queries it owns without poisoning the batch.
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

	// Scatter every query and group the subqueries by shard.
	type slot struct {
		q    int // index into qs
		part int // index into that query's subs
	}
	subsPerQ := make([][]subquery, len(qs))
	gathered := make([][]protocol.ServerReply, len(qs))
	partErr := make([]error, len(qs))
	shardBatch := make(map[int][]protocol.ServerQuery)
	shardSlots := make(map[int][]slot)
	for qi, q := range qs {
		subs := r.scatter(q)
		subsPerQ[qi] = subs
		gathered[qi] = make([]protocol.ServerReply, len(subs))
		r.mSubqueries.Add(int64(len(subs)))
		for pi, sub := range subs {
			shardBatch[sub.shard] = append(shardBatch[sub.shard], protocol.ServerQuery{
				QueryID:      q.QueryID,
				Sources:      sub.sources,
				Dests:        q.Dests,
				Profile:      q.Profile,
				DistanceOnly: q.DistanceOnly,
			})
			shardSlots[sub.shard] = append(shardSlots[sub.shard], slot{q: qi, part: pi})
		}
	}

	// One streaming batch per shard, in parallel; per-item errors and
	// whole-shard failures both land in the owning query's partErr.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for shard, batch := range shardBatch {
		wg.Add(1)
		go func(shard int, batch []protocol.ServerQuery, slots []slot) {
			defer wg.Done()
			br, err := r.callShardBatch(shard, batch, deadline)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				for _, sl := range slots {
					if partErr[sl.q] == nil {
						partErr[sl.q] = err
					}
				}
				return
			}
			for i, sl := range slots {
				if msg := br.Errors[i]; msg != "" {
					if partErr[sl.q] == nil {
						partErr[sl.q] = &ShardError{Shard: shard, Err: errors.New(msg)}
					}
					continue
				}
				gathered[sl.q][sl.part] = br.Replies[i]
			}
		}(shard, batch, shardSlots[shard])
	}
	wg.Wait()

	// Merge per query; anything that did not gather cleanly — or whose merge
	// was refused for skew — retries through the per-query path.
	for qi, q := range qs {
		if partErr[qi] == nil {
			merged, err := r.merge(q, subsPerQ[qi], gathered[qi])
			if err == nil {
				if merged.Degraded {
					r.mDegraded.Add(1)
				}
				replies[qi] = merged
				continue
			}
			partErr[qi] = err
		}
		// Execute bumps fleet_queries itself; this retry is a continuation of
		// an already-counted query, so compensate.
		r.mQueries.Add(-1)
		replies[qi], errs[qi] = r.ExecuteDeadline(q, deadline)
	}
	return replies, errs
}

// callShardBatch sends one shard its whole share of a batch as one streaming
// exchange (see withShard).
func (r *Router) callShardBatch(idx int, batch []protocol.ServerQuery, deadline time.Time) (br protocol.BatchReply, err error) {
	b := protocol.BatchQuery{BatchID: r.batchID.Add(1), Queries: batch}
	err = r.withShard(idx, deadline, func(c *protocol.MuxClient) (err error) {
		br, err = c.DoBatchDeadline(b, deadline)
		if err == nil && (len(br.Replies) != len(batch) || len(br.Errors) != len(batch)) {
			return &ShardError{Shard: idx, Err: fmt.Errorf("fleet: batch reply shape %d/%d for %d queries", len(br.Replies), len(br.Errors), len(batch))}
		}
		return err
	})
	return br, err
}
