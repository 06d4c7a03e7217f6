// Command opaque-router runs the OPAQUE fleet router: it fronts N
// opaque-server shards behind one multiplexed listener and places every
// obfuscated path query whole on one shard, round-robin, whose reply is the
// answer. Weight updates are broadcast to every shard and folded into a
// cumulative replay state, so a shard that restarts is brought back to the
// fleet metric before it answers queries. The router needs no road map.
//
// Usage:
//
//	opaque-router -shards host1:7001,host2:7001 -listen :7000
package main

import (
	"flag"
	"log"
	"net"
	"strings"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/protocol"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("opaque-router: ")

	var (
		shardsFlag    = flag.String("shards", "", "comma-separated opaque-server shard addresses (required)")
		listen        = flag.String("listen", ":7000", "TCP listen address for obfuscator connections")
		retries       = flag.Int("retries", 0, "per-shard reconnect attempts before a shard call fails (0 = default)")
		quorum        = flag.Int("quorum", 0, "weight-update ack quorum: UpdateWeights returns after this many shards ack, replay covers stragglers (0 = 1, any reachable shard; clamps to the fleet size)")
		heartbeat     = flag.Duration("heartbeat", 0, "health-probe interval: ping every shard over the mux identity stream and redial down shards through the breaker's half-open gate (0 disables; health is then tracked from query traffic alone)")
		deadline      = flag.Duration("deadline", 0, "default per-request deadline applied to requests that carry none: expired work is dropped at the router and shards instead of evaluated (0 = unbounded)")
		maxInFlight   = flag.Int("max-inflight", 0, "per-connection in-flight request cap on the client-facing listener (0 = default)")
		shedAt        = flag.Int("shed-at", 0, "admission-control watermark: at this many in-flight requests per connection, shed queries to distance-only answers (0 disables)")
		statsInterval = flag.Duration("stats-interval", 0, "periodically log placement and health counters (0 disables)")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*shardsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-shards is required (comma-separated opaque-server addresses)")
	}

	cfg := fleet.Config{
		Retries:         *retries,
		UpdateQuorum:    *quorum,
		Heartbeat:       *heartbeat,
		DefaultDeadline: *deadline,
	}

	dialers := make([]fleet.Dialer, len(addrs))
	for i, addr := range addrs {
		addr := addr
		dialers[i] = func() (*protocol.MuxClient, error) {
			return protocol.DialMux(addr, protocol.Hello{Node: "router", Role: "router"})
		}
	}
	router, err := fleet.New(cfg, dialers)
	if err != nil {
		log.Fatalf("building router: %v", err)
	}
	defer router.Close()

	if *statsInterval > 0 {
		go logStats(router, *statsInterval)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("fleet router ready on %s (%d shards)", ln.Addr(), len(addrs))
	if err := router.ServeMux(ln, protocol.MuxServerConfig{MaxInFlight: *maxInFlight, ShedAt: *shedAt}); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// logStats periodically prints the router's counters — queries and shard
// calls (subqueries), reconnect retries, exhausted-shard failures, degraded
// (shed) replies, weight-update broadcast/replay activity — plus the health
// model: per-shard up/down states, breaker trips, heartbeat failures,
// failovers and deadline-dropped requests.
func logStats(r *fleet.Router, every time.Duration) {
	for range time.Tick(every) {
		m := r.Metrics()
		states := r.ShardStates()
		shardCol := make([]string, len(states))
		for i, s := range states {
			shardCol[i] = s.String()
		}
		log.Printf("stats: queries=%d subqueries=%d | retries=%d failures=%d degraded=%d | weight-updates=%d replays=%d | shards=%s failovers=%d trips=%d hb-fails=%d deadline-drops=%d",
			m.Counter("fleet_queries"), m.Counter("fleet_subqueries"),
			m.Counter("fleet_shard_retries"), m.Counter("fleet_shard_failures"), m.Counter("fleet_degraded_replies"),
			m.Counter("fleet_weight_updates"), m.Counter("fleet_replays"),
			strings.Join(shardCol, ","), m.Counter("fleet_failovers"), m.Counter("fleet_breaker_trips"),
			m.Counter("fleet_heartbeat_failures"), m.Counter("fleet_deadline_exceeded"))
	}
}
