package fleet

// Per-shard health: a consecutive-failure circuit breaker with half-open
// probing, and an optional mux-level heartbeat that probes shards over the
// OPMX1 identity stream (protocol.MuxClient.Ping — answered by the serving
// side before admission control, so a saturated shard still proves it is
// alive).
//
// The breaker state machine is deliberately small. A shard is ShardUp until
// FailThreshold consecutive transport failures (dial errors, dropped
// connections, missed pongs) trip it to ShardDown; while down and inside
// BreakerCooldown every connect attempt fails fast with errShardDown, and
// query placement routes the shard's work elsewhere (failover) without paying
// a dial timeout per query. When the cooldown elapses the breaker is
// half-open: exactly the next connect attempt — a query placed there, or the
// heartbeat prober — performs a real dial as the probe. Success (dial +
// replay) closes the breaker and puts the shard back into the placement
// rotation, because placement always consults the current health state.
//
// Health bookkeeping lives on its own mutex (shardLink.hmu), never held
// across dials or I/O, so readers (placement, ShardStates, metrics) stay
// cheap.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"opaque/internal/protocol"
)

// ShardState is the router's health verdict for one shard.
type ShardState int

const (
	// ShardUp: the shard answers (or has not yet failed enough to distrust).
	ShardUp ShardState = iota
	// ShardDown: the circuit breaker is open; work is routed around the
	// shard and only half-open probes (after BreakerCooldown) reach it.
	ShardDown
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardUp:
		return "up"
	case ShardDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// errShardDown is the fast-fail connect result while a shard's breaker is
// open and cooling; it is always wrapped in a ShardError before reaching a
// caller.
var errShardDown = errors.New("fleet: shard unavailable (circuit open)")

// ErrQuorumNotReached reports a weight update acknowledged by at least one
// but fewer than UpdateQuorum shards. The update is not lost — it is folded
// into the cumulative replay state and reaches stragglers on reconnect — but
// the caller asked for a stronger durability signal than the fleet could
// give.
var ErrQuorumNotReached = errors.New("fleet: weight update quorum not reached")

// shardHealth is the per-shard breaker state, guarded by its own mutex that
// is never held across I/O.
type shardHealth struct {
	state       ShardState
	consecFails int
	downUntil   time.Time // half-open probe gate while state == ShardDown
}

// ShardStates returns the router's current health verdict per shard.
func (r *Router) ShardStates() []ShardState {
	states := make([]ShardState, len(r.shards))
	for i, l := range r.shards {
		l.hmu.Lock()
		states[i] = l.health.state
		l.hmu.Unlock()
	}
	return states
}

// available reports whether routing should send a shard new work: the
// breaker is closed, or it is half-open (cooldown elapsed) and the next
// attempt doubles as the probe.
func (r *Router) available(l *shardLink) bool {
	l.hmu.Lock()
	defer l.hmu.Unlock()
	return l.health.state == ShardUp || !time.Now().Before(l.health.downUntil)
}

// probeAllowed reports whether a connect attempt may really dial right now:
// always while up, and once the cooldown elapses while down (the half-open
// probe). Extends the gate so concurrent callers do not stampede the probe.
func (r *Router) probeAllowed(l *shardLink) bool {
	l.hmu.Lock()
	defer l.hmu.Unlock()
	if l.health.state == ShardUp {
		return true
	}
	if time.Now().Before(l.health.downUntil) {
		return false
	}
	l.health.downUntil = time.Now().Add(r.cfg.BreakerCooldown)
	return true
}

// noteSuccess records a successful exchange: the failure streak resets and a
// down shard comes back up (rejoining placement implicitly — placement
// consults health on every query).
func (r *Router) noteSuccess(l *shardLink) {
	l.hmu.Lock()
	l.health.consecFails = 0
	recovered := l.health.state == ShardDown
	l.health.state = ShardUp
	l.hmu.Unlock()
	if recovered {
		r.setStateGauge(l.idx, ShardUp)
	}
}

// noteFailure records a transport failure; FailThreshold consecutive
// failures trip the breaker open for BreakerCooldown.
func (r *Router) noteFailure(l *shardLink) {
	l.hmu.Lock()
	l.health.consecFails++
	tripped := false
	if l.health.consecFails >= r.cfg.FailThreshold {
		if l.health.state == ShardUp {
			tripped = true
		}
		l.health.state = ShardDown
		l.health.downUntil = time.Now().Add(r.cfg.BreakerCooldown)
	}
	l.hmu.Unlock()
	if tripped {
		r.mBreakerTrips.Add(1)
		r.setStateGauge(l.idx, ShardDown)
	}
}

// setStateGauge publishes one shard's health as fleet_shard_state_<idx>
// (0 = up, 1 = down).
func (r *Router) setStateGauge(idx int, s ShardState) {
	r.metrics.SetGauge(fmt.Sprintf("fleet_shard_state_%d", idx), float64(s))
}

// heartbeatLoop probes one shard every Config.Heartbeat until the router
// closes: a live connection is pinged over the identity stream (a missed
// pong is a health failure and drops the connection), and a down or
// unconnected shard gets a connect attempt, which respects the half-open
// gate and — on success — replays the weight state and closes the breaker.
func (r *Router) heartbeatLoop(l *shardLink) {
	t := time.NewTicker(r.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-r.hbStop:
			return
		case <-t.C:
		}
		r.probeShard(l)
	}
}

// probeShard performs one heartbeat round against a shard.
func (r *Router) probeShard(l *shardLink) {
	l.mu.Lock()
	c := l.client
	l.mu.Unlock()
	if c != nil && c.Err() == nil {
		if _, err := c.Ping(time.Now().Add(r.cfg.Heartbeat)); err != nil {
			r.mHeartbeatFails.Add(1)
			r.noteFailure(l)
			l.dropClient(c)
		} else {
			r.noteSuccess(l)
		}
		return
	}
	// No live connection: try to establish one. connect respects the
	// breaker's half-open gate, replays the weight state, and marks the
	// shard up on success.
	if _, err := r.connect(l); err != nil && !errors.Is(err, errShardDown) {
		r.mHeartbeatFails.Add(1)
	}
}

// backoffDelay returns the jittered exponential delay before retry attempt
// (1-based): raw = min(base << (attempt-1), cap), jittered uniformly in
// [raw/2, 3·raw/2). The jitter decorrelates retry storms — with a fixed
// backoff every query that lost the same shard redials it in lockstep.
func backoffDelay(attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt < 1 {
		attempt = 1
	}
	raw := base
	for i := 1; i < attempt; i++ {
		raw *= 2
		if raw >= cap {
			raw = cap
			break
		}
	}
	if cap > 0 && raw > cap {
		raw = cap
	}
	half := raw / 2
	return half + time.Duration(rand.Int63n(int64(raw)))
}

// sleep blocks for d, interruptible by Router.Close (quiesce) and by the
// request deadline (zero = none). It returns nil when the full delay was
// slept, ErrRouterClosed on quiesce, and protocol.ErrDeadlineExceeded when
// the deadline cuts the wait short — retrying past the deadline would only
// produce an answer nobody is waiting for.
func (r *Router) sleep(d time.Duration, deadline time.Time) error {
	if !deadline.IsZero() {
		until := time.Until(deadline)
		if until <= 0 {
			return fmt.Errorf("%w: during retry backoff", protocol.ErrDeadlineExceeded)
		}
		if until < d {
			d = until
		}
	}
	r.qmu.Lock()
	quiesce := r.quiesce
	r.qmu.Unlock()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return fmt.Errorf("%w: during retry backoff", protocol.ErrDeadlineExceeded)
		}
		return nil
	case <-quiesce:
		return ErrRouterClosed
	}
}

// ErrRouterClosed interrupts retry backoff when Router.Close quiesces the
// fleet: in-flight retry loops stop sleeping and surface instead of leaking
// a sleeping goroutine per retrying query.
var ErrRouterClosed = errors.New("fleet: router closed")
