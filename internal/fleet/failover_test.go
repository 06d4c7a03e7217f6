package fleet_test

// Fault-tolerance battery beyond the kill-mid-batch test: replicate-mode
// failover (the acceptance criteria demand a shard killed mid-run in *each*
// mode), update-ack quorums, read-after-update under overlapping updates,
// prompt Close interruption of retry backoff,
// deadline propagation, and the small contracts — ShardError unwrapping and
// Mode.String on unknown modes.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

func TestModeString(t *testing.T) {
	cases := []struct {
		mode fleet.Mode
		want string
	}{
		{fleet.ModePartition, "partition"},
		{fleet.ModeReplicate, "replicate"},
		{fleet.Mode(7), "mode(7)"},
		{fleet.Mode(-1), "mode(-1)"},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(c.mode), got, c.want)
		}
	}
}

func TestShardErrorUnwrap(t *testing.T) {
	sentinel := errors.New("dial refused")
	err := fmt.Errorf("query 7: %w", &fleet.ShardError{Shard: 2, Err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Error("errors.Is does not reach the cause through ShardError")
	}
	var se *fleet.ShardError
	if !errors.As(err, &se) {
		t.Fatal("errors.As does not find the ShardError through wrapping")
	}
	if se.Shard != 2 {
		t.Errorf("unwrapped ShardError.Shard = %d, want 2", se.Shard)
	}
	if !errors.Is(se, sentinel) {
		t.Error("ShardError.Unwrap does not expose the cause")
	}
}

// TestFleetFailoverReplicate kills one of three replicas mid-workload: every
// query keeps answering the exact single-server table (the round-robin
// routes around the open breaker, and queries that had already been assigned
// the dead replica are placed again on a survivor), and the healed shard rejoins
// after its breaker cooldown.
func TestFleetFailoverReplicate(t *testing.T) {
	g := testGraph(t, 300, 1601)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 3,
		Mode:   fleet.ModeReplicate,
		Fleet: fleet.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
			FailThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	qs := makeQueries(g, 12, 4701)
	// Warm a connection to every replica, then kill one.
	for i := 0; i < 3; i++ {
		if _, err := cl.Router.Execute(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cl.Kill(1)

	for _, q := range qs {
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Errorf("query %d failed during the outage (round-robin should have skipped the dead replica): %v", q.QueryID, err)
			continue
		}
		want, werr := ref.Evaluate(q)
		if werr != nil {
			t.Fatal(werr)
		}
		assertSameReply(t, fmt.Sprintf("outage q%d", q.QueryID), q, got, want)
	}
	m := cl.Router.Metrics()
	if m.Counter("fleet_shard_retries") == 0 {
		t.Error("fleet_shard_retries = 0: the dead replica was never retried before failing over")
	}
	if m.Counter("fleet_shard_failures") == 0 {
		t.Error("fleet_shard_failures never counted the dead replica")
	}
	if m.Counter("fleet_breaker_trips") == 0 {
		t.Error("fleet_breaker_trips = 0: the dead replica's circuit never opened")
	}
	if m.Counter("fleet_failovers") == 0 {
		t.Error("fleet_failovers = 0: no query was re-routed to a survivor")
	}
	if s := cl.Router.ShardStates(); s[1] != fleet.ShardDown {
		t.Errorf("shard 1 state = %v after the outage, want down", s[1])
	}

	// Heal: once the breaker cooldown elapses, the next query preferring the
	// restarted replica is the half-open probe and closes the circuit.
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(75 * time.Millisecond)
	for _, q := range qs {
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("query %d still failing after restart: %v", q.QueryID, err)
		}
		want, werr := ref.Evaluate(q)
		if werr != nil {
			t.Fatal(werr)
		}
		assertSameReply(t, fmt.Sprintf("healed q%d", q.QueryID), q, got, want)
	}
	if s := cl.Router.ShardStates(); s[1] != fleet.ShardUp {
		t.Errorf("shard 1 state = %v after restart + cooldown, want up", s[1])
	}
}

// TestFleetUpdateQuorum pins the K-of-N ack contract: a quorum-2 update over
// a two-shard fleet fails with ErrQuorumNotReached while one shard is dead,
// but the change is still recorded — reconnect replay brings the restarted
// shard to the full cumulative state, and the fleet answers exactly like a
// single server that saw every update.
func TestFleetUpdateQuorum(t *testing.T) {
	g := testGraph(t, 300, 1701)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		Fleet: fleet.Config{
			Retries: 1, RetryBackoff: time.Millisecond,
			UpdateQuorum: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	rng := rand.New(rand.NewSource(5701))
	change := func() []roadnet.ArcWeightChange {
		var cs []roadnet.ArcWeightChange
		for len(cs) == 0 {
			v := roadnet.NodeID(rng.Intn(g.NumNodes()))
			for _, a := range g.Arcs(v) {
				cs = append(cs, roadnet.ArcWeightChange{From: v, To: a.To, NewCost: a.Cost * (0.5 + rng.Float64())})
			}
		}
		return cs
	}
	apply := func(cs []roadnet.ArcWeightChange) {
		t.Helper()
		if _, err := ref.UpdateWeights(cs); err != nil {
			t.Fatal(err)
		}
	}

	// Both shards up: quorum 2 is reachable.
	cs := change()
	if err := cl.Router.UpdateWeights(cs); err != nil {
		t.Fatalf("update with the full fleet up: %v", err)
	}
	apply(cs)

	// One shard dead: one ack is below quorum — and the error says so
	// without hiding that a shard did apply the update.
	cl.Kill(1)
	cs = change()
	err = cl.Router.UpdateWeights(cs)
	if !errors.Is(err, fleet.ErrQuorumNotReached) {
		t.Fatalf("update with one shard dead: %v, want ErrQuorumNotReached", err)
	}
	apply(cs)

	// Restart: reconnect replay covers the missed update, the next quorum-2
	// update succeeds, and the whole fleet matches the reference.
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	cs = change()
	if err := cl.Router.UpdateWeights(cs); err != nil {
		t.Fatalf("update after restart: %v", err)
	}
	apply(cs)
	if cl.Router.Metrics().Counter("fleet_replays") == 0 {
		t.Error("fleet_replays = 0: the restarted shard was never brought back to the fleet metric")
	}

	for _, q := range makeQueries(g, 8, 4801) {
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, rerr := cl.Router.Execute(q)
		if rerr != nil {
			t.Fatalf("query %d: %v", q.QueryID, rerr)
		}
		assertSameReply(t, fmt.Sprintf("q%d", q.QueryID), q, got, want)
	}
}

// TestQueryAfterOverlappingUpdates pins read-after-update under quorum 1
// with a lagging shard: three weight updates overlap, and a query issued as
// soon as the middle one returns must see it, even while the fast shard is
// still applying the last one and the slow shard is still applying the
// first. The first and last updates rewrite arcs to their base costs, so the
// only answer that counts as fresh is the one under the middle update.
func TestQueryAfterOverlappingUpdates(t *testing.T) {
	g := testGraph(t, 300, 1801)
	src, dst := roadnet.NodeID(3), roadnet.NodeID(250)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Mode: fleet.ModeReplicate})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := protocol.ServerQuery{Sources: []roadnet.NodeID{src}, Dests: []roadnet.NodeID{dst}}
	// Dial both shards before the links slow down.
	for k := 0; k < 2; k++ {
		if _, err := cl.Router.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	cl.Shard(0).SetLatency(3 * time.Millisecond)
	cl.Shard(1).SetLatency(40 * time.Millisecond)
	ref := server.MustNew(g, server.DefaultConfig())

	other := roadnet.NodeID(120)
	noop := make([]roadnet.ArcWeightChange, 0, len(g.Arcs(other)))
	for _, a := range g.Arcs(other) {
		noop = append(noop, roadnet.ArcWeightChange{From: other, To: a.To, NewCost: a.Cost})
	}
	for round := 0; round < 10; round++ {
		// Every arc out of src gets dearer each round, so each round's
		// answer differs from the last.
		var scale []roadnet.ArcWeightChange
		for _, a := range g.Arcs(src) {
			scale = append(scale, roadnet.ArcWeightChange{From: src, To: a.To, NewCost: a.Cost * float64(2+round)})
		}
		// The short pauses let each update's sends queue behind the
		// previous one's on both shards.
		others := make(chan error, 2)
		go func() { others <- cl.Router.UpdateWeights(noop) }()
		time.Sleep(time.Millisecond)
		middle := make(chan error, 1)
		go func() { middle <- cl.Router.UpdateWeights(scale) }()
		time.Sleep(time.Millisecond)
		go func() { others <- cl.Router.UpdateWeights(noop) }()
		if err := <-middle; err != nil {
			t.Fatalf("round %d: update: %v", round, err)
		}
		// Two queries at once: round-robin prefers a different shard for
		// each, so one of them prefers the slow shard.
		var replies [2]protocol.ServerReply
		var errs [2]error
		var wg sync.WaitGroup
		for k := range replies {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				replies[k], errs[k] = cl.Router.Execute(q)
			}(k)
		}
		wg.Wait()
		if _, err := ref.UpdateWeights(scale); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range replies {
			if errs[k] != nil {
				t.Fatalf("round %d query %d: %v", round, k, errs[k])
			}
			assertSameReply(t, fmt.Sprintf("round %d query %d", round, k), q, got, want)
		}
		for i := 0; i < 2; i++ {
			if err := <-others; err != nil {
				t.Fatalf("round %d: overlapping update: %v", round, err)
			}
		}
	}
}

// TestRouterCloseInterruptsBackoff pins the cancellable-backoff contract:
// a query stuck in a long retry backoff against a dead shard returns
// promptly with ErrRouterClosed when the router is quiesced, instead of
// sleeping out a multi-second schedule.
func TestRouterCloseInterruptsBackoff(t *testing.T) {
	g := testGraph(t, 120, 1801)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 1,
		Fleet: fleet.Config{
			Retries: 3, RetryBackoff: 20 * time.Second,
			// A threshold the retry budget cannot reach, so the breaker never
			// opens and every attempt really dials and sleeps.
			FailThreshold: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.Kill(0)
	q := makeQueries(g, 1, 4901)[0]
	done := make(chan error, 1)
	go func() {
		_, err := cl.Router.Execute(q)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the query enter its backoff sleep
	start := time.Now()
	cl.Router.Close()
	select {
	case err := <-done:
		if !errors.Is(err, fleet.ErrRouterClosed) {
			t.Fatalf("interrupted query returned %v, want ErrRouterClosed", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Errorf("Close took %v to interrupt the backoff sleep", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query still sleeping 5s after Close — backoff is not cancellable")
	}
}

// TestFleetDeadline pins deadline propagation: an expired deadline fails
// fast with a deadline error (counted on fleet_deadline_exceeded), a
// generous one answers normally, and neither leaves the fleet unhealthy.
func TestFleetDeadline(t *testing.T) {
	g := testGraph(t, 300, 1901)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 2,
		Fleet:  fleet.Config{Retries: 1, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	qs := makeQueries(g, 2, 5001)
	if _, err := cl.Router.ExecuteDeadline(qs[0], time.Now().Add(10*time.Second)); err != nil {
		t.Fatalf("query with a generous deadline: %v", err)
	}
	_, err = cl.Router.ExecuteDeadline(qs[1], time.Now().Add(-time.Millisecond))
	if err == nil {
		t.Fatal("query with an expired deadline answered anyway")
	}
	if !protocol.IsDeadlineExceeded(err) {
		t.Fatalf("expired-deadline error = %v, want a deadline error", err)
	}
	if cl.Router.Metrics().Counter("fleet_deadline_exceeded") == 0 {
		t.Error("fleet_deadline_exceeded = 0 after an expired-deadline query")
	}
	// The deadline was the caller's problem, not the shards': a plain query
	// still answers.
	if _, err := cl.Router.Execute(qs[1]); err != nil {
		t.Fatalf("plain query after the deadline miss: %v", err)
	}
}
