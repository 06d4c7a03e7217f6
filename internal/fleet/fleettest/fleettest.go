// Package fleettest is the in-process fleet harness: a router and N shard
// servers wired together over net.Pipe connections, with kill/restart
// controls for fault-injection tests. Nothing here depends on testing, so
// any harness can build the same cluster the test battery does.
//
// Each shard is a complete server.Server over the full road map; killing a
// shard severs its live connections and makes its dialer refuse, and
// restarting it builds a *fresh* server from the base graph — deliberately
// forgetting every weight update, so reconnect replay (the router bringing a
// restarted shard back to the fleet metric) is exercised by construction.
package fleettest

import (
	"fmt"
	"net"
	"sync"

	"opaque/internal/fleet"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

// Options parameterises a cluster.
type Options struct {
	// Shards is the fleet size (default 2).
	Shards int
	// Mode is the fleet mode (default fleet.ModePartition).
	Mode fleet.Mode
	// Server configures every shard (and should match the single-server
	// reference an equivalence test compares against).
	Server server.Config
	// Fleet overrides router knobs (Retries, RetryBackoff, ...); Mode is set
	// by the harness.
	Fleet fleet.Config
	// Mux configures each shard's serving side (MaxInFlight, ShedAt).
	Mux protocol.MuxServerConfig
}

// Shard is one in-process shard: a server plus the live server-side pipe
// ends, with a kill switch.
type Shard struct {
	idx    int
	g      *roadnet.Graph
	cfg    server.Config
	mux    protocol.MuxServerConfig
	faults *faultState

	mu    sync.Mutex
	srv   *server.Server
	down  bool
	conns []net.Conn
}

// dial is the fleet.Dialer for this shard: one net.Pipe, the server side
// served on its own goroutine, the client side handed to the router.
func (sh *Shard) dial() (*protocol.MuxClient, error) {
	if sh.faults.dialShouldFail() {
		return nil, fmt.Errorf("fleettest: shard %d dial lost (injected)", sh.idx)
	}
	if sh.Blackholed() {
		// A dial into a blackholed route times out; failing immediately keeps
		// the breaker semantics without a wall-clock wait per attempt.
		return nil, fmt.Errorf("fleettest: shard %d dial timed out (blackholed)", sh.idx)
	}
	sh.mu.Lock()
	if sh.down {
		sh.mu.Unlock()
		return nil, fmt.Errorf("fleettest: shard %d is down", sh.idx)
	}
	srv := sh.srv
	rawRouterEnd, shardEnd := net.Pipe()
	routerEnd := sh.faults.wrap(rawRouterEnd)
	sh.conns = append(sh.conns, shardEnd, routerEnd)
	mux := sh.mux
	sh.mu.Unlock()
	go func() { _ = srv.ServeMuxConn(shardEnd, mux) }()
	c, err := protocol.NewMuxClient(routerEnd, protocol.Hello{Node: "router", Role: "router"})
	if err != nil {
		routerEnd.Close()
		shardEnd.Close()
		return nil, err
	}
	return c, nil
}

// Server returns the shard's current server (a fresh instance after every
// Restart) for direct metric and state assertions.
func (sh *Shard) Server() *server.Server {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.srv
}

// Cluster is a router fronting N in-process shards.
type Cluster struct {
	Graph  *roadnet.Graph
	Router *fleet.Router
	shards []*Shard
}

// New builds the cluster: shards, then the router.
func New(g *roadnet.Graph, opts Options) (*Cluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	c := &Cluster{Graph: g}
	dialers := make([]fleet.Dialer, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		srv, err := server.New(g, opts.Server)
		if err != nil {
			return nil, fmt.Errorf("fleettest: building shard %d: %w", i, err)
		}
		sh := &Shard{idx: i, g: g, cfg: opts.Server, mux: opts.Mux, srv: srv, faults: newFaultState()}
		c.shards = append(c.shards, sh)
		dialers[i] = sh.dial
	}
	fcfg := opts.Fleet
	fcfg.Mode = opts.Mode
	router, err := fleet.New(fcfg, dialers)
	if err != nil {
		return nil, fmt.Errorf("fleettest: building router: %w", err)
	}
	c.Router = router
	return c, nil
}

// NumShards returns the fleet size.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Kill severs shard i: its dialer refuses and every live connection is cut,
// failing the shard's in-flight requests at the router.
func (c *Cluster) Kill(i int) {
	sh := c.shards[i]
	sh.mu.Lock()
	sh.down = true
	conns := sh.conns
	sh.conns = nil
	sh.mu.Unlock()
	for _, cn := range conns {
		cn.Close()
	}
}

// Restart brings shard i back as a fresh server built from the base graph —
// with base weights, so the router's reconnect replay must bring it back to
// the fleet metric before it answers queries.
func (c *Cluster) Restart(i int) error {
	sh := c.shards[i]
	srv, err := server.New(sh.g, sh.cfg)
	if err != nil {
		return fmt.Errorf("fleettest: restarting shard %d: %w", i, err)
	}
	sh.mu.Lock()
	sh.srv = srv
	sh.down = false
	sh.mu.Unlock()
	return nil
}

// DialRouter connects a multiplexed client to the router's own serving side
// over net.Pipe — how an obfuscator in the networked deployment would see
// the fleet.
func (c *Cluster) DialRouter(mux protocol.MuxServerConfig) (*protocol.MuxClient, error) {
	clientEnd, routerEnd := net.Pipe()
	go func() { _ = c.Router.ServeMuxConn(routerEnd, mux) }()
	mc, err := protocol.NewMuxClient(clientEnd, protocol.Hello{Node: "obfuscator", Role: "obfuscator"})
	if err != nil {
		clientEnd.Close()
		routerEnd.Close()
		return nil, err
	}
	return mc, nil
}

// Close kills every shard and quiesces the router.
func (c *Cluster) Close() {
	c.Router.Close()
	for i := range c.shards {
		c.Kill(i)
	}
}
