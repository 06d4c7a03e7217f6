package fleet_test

// The fleet churn soak: router + 2 shards under a sustained weight-update
// stream and concurrent query load, with a shard kill/restart in the middle.
// It asserts the invariants that must hold under arbitrary interleaving —
// every successful reply is one whole table from one shard (whole-query
// placement makes mixed-generation tables impossible by construction),
// failures are only bounded-retry shard errors, and after the churn stops
// the fleet converges back to exact reference answers.
//
// The default run is short enough for the ordinary test suite; CI's soak step
// stretches it with FLEET_SOAK_SECONDS=10 under -race.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

func soakDuration(t *testing.T) time.Duration {
	if s := os.Getenv("FLEET_SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("FLEET_SOAK_SECONDS=%q is not a positive integer", s)
		}
		return time.Duration(secs) * time.Second
	}
	if testing.Short() {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

func TestFleetChurnSoak(t *testing.T) {
	duration := soakDuration(t)
	g := testGraph(t, 400, 1901)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	// The churn stream applies to the fleet and the reference in lockstep
	// under refMu, so the post-churn comparison has an exact oracle.
	var refMu sync.Mutex
	applyBoth := func(changes []roadnet.ArcWeightChange) error {
		refMu.Lock()
		defer refMu.Unlock()
		if err := cl.Router.UpdateWeights(changes); err != nil {
			return fmt.Errorf("fleet update: %w", err)
		}
		if _, err := ref.UpdateWeights(changes); err != nil {
			return fmt.Errorf("reference update: %w", err)
		}
		return nil
	}

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var updates, queries, degradedQueries atomic.Int64

	// Churn: a sustained stream of weight updates over a hot arc pool.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6001))
		for {
			select {
			case <-stop:
				return
			default:
			}
			var changes []roadnet.ArcWeightChange
			for i := 0; i < 4; i++ {
				v := roadnet.NodeID(rng.Intn(g.NumNodes()))
				if arcs := g.Arcs(v); len(arcs) > 0 {
					changes = append(changes, roadnet.ArcWeightChange{From: v, To: arcs[0].To, NewCost: arcs[0].Cost * (0.5 + rng.Float64())})
				}
			}
			if err := applyBoth(changes); err != nil {
				errCh <- err
				return
			}
			updates.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Query load: several workers hammering the router while the metric
	// churns underneath. Failures must be typed — a shard error inside the
	// kill window — never a malformed or mixed reply.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := makeQueries(g, 10, int64(7000+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				rep, err := cl.Router.Execute(q)
				queries.Add(1)
				if err != nil {
					var se *fleet.ShardError
					if errors.As(err, &se) {
						degradedQueries.Add(1)
						continue
					}
					errCh <- fmt.Errorf("worker %d query %d: untyped failure: %w", w, q.QueryID, err)
					return
				}
				if len(rep.Paths) != len(q.Sources)*len(q.Dests) {
					errCh <- fmt.Errorf("worker %d query %d: table shape %d for %d×%d", w, q.QueryID, len(rep.Paths), len(q.Sources), len(q.Dests))
					return
				}
			}
		}(w)
	}

	// Fault injection mid-churn: kill and restart each shard in turn while
	// updates and queries keep flowing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(duration / 4):
			}
			shard := i % cl.NumShards()
			cl.Kill(shard)
			time.Sleep(20 * time.Millisecond)
			if err := cl.Restart(shard); err != nil {
				errCh <- fmt.Errorf("restarting shard %d: %w", shard, err)
				return
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Quiesced fleet: every answer is exact against the reference again.
	for _, q := range makeQueries(g, 10, 7101) {
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("post-soak query %d: %v", q.QueryID, err)
		}
		assertSameReply(t, fmt.Sprintf("post-soak q%d", q.QueryID), got, want)
	}

	m := cl.Router.Metrics()
	t.Logf("soak %v: %d updates, %d queries (%d failed in the kill windows), replays=%d retries=%d failures=%d",
		duration, updates.Load(), queries.Load(), degradedQueries.Load(),
		m.Counter("fleet_replays"),
		m.Counter("fleet_shard_retries"), m.Counter("fleet_shard_failures"))
	if updates.Load() == 0 || queries.Load() == 0 {
		t.Errorf("soak exercised nothing: %d updates, %d queries", updates.Load(), queries.Load())
	}
	if m.Counter("fleet_replays") == 0 {
		t.Error("no reconnect replay happened across the kill/restart cycles")
	}
}

func chaosDuration(t *testing.T) time.Duration {
	if s := os.Getenv("FLEET_CHAOS_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("FLEET_CHAOS_SECONDS=%q is not a positive integer", s)
		}
		return time.Duration(secs) * time.Second
	}
	if testing.Short() {
		return 500 * time.Millisecond
	}
	return 2 * time.Second
}

// TestFleetChaosSoak is the full fault battery under churn: three shards with
// heartbeat probing and per-query deadlines, while a fault cycler walks the
// fleet injecting kills, connection blackholes, write latency and flaky
// dials — one faulted shard at a time, always restored before the next
// strike. The assertions are the fault-tolerance contract: availability
// stays above a floor during the chaos (failover routes around every fault
// the health model can see), every failure is typed (shard/deadline —
// never a malformed or mixed-generation reply), and once the faults stop the
// fleet converges back to exact single-server answers via replay.
//
// Blackholes are the reason the heartbeat exists — a blackholed route
// swallows writes silently, so only the prober's ping deadline can condemn
// the connection — which is why this soak (unlike the churn soak) runs with
// Heartbeat enabled and would hang without it.
func TestFleetChaosSoak(t *testing.T) {
	for _, mode := range []fleet.Mode{fleet.ModePartition, fleet.ModeReplicate} {
		t.Run(mode.String(), func(t *testing.T) {
			chaosSoak(t, mode)
		})
	}
}

func chaosSoak(t *testing.T, mode fleet.Mode) {
	duration := chaosDuration(t)
	g := testGraph(t, 400, 2101)
	cl, err := fleettest.New(g, fleettest.Options{
		Shards: 3,
		Mode:   mode,
		Fleet: fleet.Config{
			Retries: 2, RetryBackoff: 2 * time.Millisecond,
			FailThreshold: 2, BreakerCooldown: 40 * time.Millisecond,
			FailoverRetries: 3,
			Heartbeat:       15 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	var refMu sync.Mutex
	applyBoth := func(changes []roadnet.ArcWeightChange) error {
		refMu.Lock()
		defer refMu.Unlock()
		// Quorum 1: one reachable shard is enough mid-chaos; replay and the
		// broadcast stragglers converge the rest.
		if err := cl.Router.UpdateWeights(changes); err != nil {
			return fmt.Errorf("fleet update: %w", err)
		}
		if _, err := ref.UpdateWeights(changes); err != nil {
			return fmt.Errorf("reference update: %w", err)
		}
		return nil
	}

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var updates, attempts, failures atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6101))
		for {
			select {
			case <-stop:
				return
			default:
			}
			var changes []roadnet.ArcWeightChange
			for i := 0; i < 4; i++ {
				v := roadnet.NodeID(rng.Intn(g.NumNodes()))
				if arcs := g.Arcs(v); len(arcs) > 0 {
					changes = append(changes, roadnet.ArcWeightChange{From: v, To: arcs[0].To, NewCost: arcs[0].Cost * (0.5 + rng.Float64())})
				}
			}
			if err := applyBoth(changes); err != nil {
				errCh <- err
				return
			}
			updates.Add(1)
			time.Sleep(3 * time.Millisecond)
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := makeQueries(g, 10, int64(8000+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				rep, err := cl.Router.ExecuteDeadline(q, time.Now().Add(2*time.Second))
				attempts.Add(1)
				if err != nil {
					var se *fleet.ShardError
					switch {
					case errors.As(err, &se), protocol.IsDeadlineExceeded(err):
						failures.Add(1)
						continue
					default:
						errCh <- fmt.Errorf("worker %d query %d: untyped failure: %w", w, q.QueryID, err)
						return
					}
				}
				if len(rep.Paths) != len(q.Sources)*len(q.Dests) {
					errCh <- fmt.Errorf("worker %d query %d: table shape %d for %d×%d", w, q.QueryID, len(rep.Paths), len(q.Sources), len(q.Dests))
					return
				}
			}
		}(w)
	}

	// The fault cycler: strike one shard at a time, hold the fault, restore,
	// move on. Every fault is restored before the cycler exits, so the
	// post-quiesce phase starts from a whole (if unconverged) fleet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		hold := 50 * time.Millisecond
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			sh := i % cl.NumShards()
			switch i % 4 {
			case 0: // crash + restart: exercises dial refusal and replay
				cl.Kill(sh)
				time.Sleep(hold)
				if err := cl.Restart(sh); err != nil {
					errCh <- fmt.Errorf("restarting shard %d: %w", sh, err)
					return
				}
			case 1: // blackhole: silent route death only the heartbeat can see
				cl.Shard(sh).Blackhole(true)
				time.Sleep(hold)
				cl.Shard(sh).Blackhole(false)
			case 2: // latency: a slow link that must not trip anything
				cl.Shard(sh).SetLatency(3 * time.Millisecond)
				time.Sleep(hold)
				cl.Shard(sh).SetLatency(0)
			case 3: // flaky dials: reconnects fail half the time
				cl.Shard(sh).SetDialFailProb(0.5)
				time.Sleep(hold)
				cl.Shard(sh).SetDialFailProb(0)
			}
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	att, fail := attempts.Load(), failures.Load()
	if att == 0 || updates.Load() == 0 {
		t.Fatalf("chaos exercised nothing: %d attempts, %d updates", att, updates.Load())
	}
	availability := 1 - float64(fail)/float64(att)
	m := cl.Router.Metrics()
	t.Logf("chaos %v (%s): %d updates, %d queries, availability %.4f; trips=%d heartbeat-fails=%d failovers=%d replays=%d deadline-drops=%d",
		duration, mode, updates.Load(), att, availability,
		m.Counter("fleet_breaker_trips"), m.Counter("fleet_heartbeat_failures"),
		m.Counter("fleet_failovers"), m.Counter("fleet_replays"),
		m.Counter("fleet_deadline_exceeded"))
	// The floor: with one faulted shard at a time and failover re-owning its
	// work, the overwhelming majority of queries must keep answering.
	if availability < 0.9 {
		t.Errorf("availability %.4f under single-shard faults, want ≥ 0.90", availability)
	}
	if m.Counter("fleet_replays") == 0 {
		t.Error("no reconnect replay happened across the kill/restart cycles")
	}

	// Post-quiesce: wait out the breaker cooldown so every shard is
	// re-admitted, then demand exact reference answers — replay must have
	// converged every shard back to the fleet metric.
	time.Sleep(60 * time.Millisecond)
	for _, q := range makeQueries(g, 10, 8101) {
		want, err := ref.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Router.Execute(q)
		if err != nil {
			t.Fatalf("post-chaos query %d: %v", q.QueryID, err)
		}
		assertSameReply(t, fmt.Sprintf("post-chaos q%d", q.QueryID), got, want)
	}
	states := cl.Router.ShardStates()
	for i, s := range states {
		if s != fleet.ShardUp {
			t.Errorf("shard %d state = %v after quiesce, want up", i, s)
		}
	}
}

// TestFleetServedThroughObfuscator wires the router behind an obfuscator-side
// MuxExecutor over the harness's DialRouter pipe — the full networked
// deployment shape — and checks a batch round trip.
func TestFleetServedThroughObfuscator(t *testing.T) {
	g := testGraph(t, 300, 2001)
	cl, err := fleettest.New(g, fleettest.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref := server.MustNew(g, server.DefaultConfig())

	mc, err := cl.DialRouter(protocol.MuxServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if role := mc.Peer().Role; role != "router" {
		t.Errorf("router welcome role = %q", role)
	}

	qs := makeQueries(g, 6, 7201)
	br, err := mc.DoBatch(protocol.BatchQuery{BatchID: 1, Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if br.Errors[i] != "" {
			t.Fatalf("batch slot %d: %s", i, br.Errors[i])
		}
		want, err := ref.Evaluate(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		assertSameReply(t, fmt.Sprintf("via-obfuscator q%d", qs[i].QueryID), br.Replies[i], want)
	}
}
