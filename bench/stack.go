package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opaque/internal/ch"
	"opaque/internal/fleet"
	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

const (
	// mapSeed is fixed (gen.DefaultNetworkConfig's): every seed drives traffic
	// over the same road map, so run-to-run differences come from the traffic
	// and the machine, not from a different graph.
	mapSeed = 42
	// numShards and partitionCells fix the fleet shape.
	numShards      = 2
	partitionCells = 16
)

// wireCounter counts the bytes crossing every connection a stack's listeners
// accepted. Each byte is seen once per hop, on the accepting side.
type wireCounter struct {
	in, out atomic.Int64
}

func (w *wireCounter) total() int64 { return w.in.Load() + w.out.Load() }

type countingListener struct {
	net.Listener
	wire *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, wire: l.wire}, nil
}

type countingConn struct {
	net.Conn
	wire *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.out.Add(int64(n))
	return n, err
}

// stackConfig says what to build.
type stackConfig struct {
	w     *workload
	nodes int
	seed  uint64
	// tracer, when set, wraps every seam the stack wires with span recording.
	// End-to-end runs leave it nil: nothing is wrapped at all.
	tracer *tracer
	// wrapExecutor, when set, wraps the executor handed to obfsvc.New (after
	// the tracer's wrapper). The smoke test injects a stall through it.
	wrapExecutor func(obfsvc.BatchExecutor) obfsvc.BatchExecutor
}

// stack is the system under test: every tier on its own loopback TCP
// listener, all inside this process.
//
//	generator → obfsvc.Service → fleet.Router → 2 × server.Server   (default)
//	generator → server.Server                                       (direct)
type stack struct {
	g      *roadnet.Graph
	part   *roadnet.Partition
	shards []*server.Server
	router *fleet.Router
	svc    *obfsvc.Service
	exec   *obfsvc.MuxExecutor
	// conns are the generator's connections to the front door.
	conns []*protocol.MuxClient
	wire  wireCounter

	listeners []net.Listener
	serving   sync.WaitGroup

	// chBuildS and chLoadMS time the overlay build and one shard's load.
	chBuildS, chLoadMS float64
}

// buildStack generates the road map, builds and loads the overlay, starts
// every tier and connects the generator. Everything it does is part of
// setup_s.
func buildStack(cfg stackConfig) (*stack, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = cfg.nodes
	netCfg.Seed = mapSeed
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, fmt.Errorf("generating road map: %w", err)
	}
	st := &stack{g: g}
	var front string
	if cfg.w.direct {
		front, err = st.startDirect(cfg)
	} else {
		front, err = st.startFleet(cfg)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := protocol.DialMux(front, protocol.Hello{Node: "loadgen", Role: "client"})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("generator connecting: %w", err)
		}
		st.conns = append(st.conns, c)
	}
	return st, nil
}

// serve starts one tier on a fresh loopback listener and returns its address.
func (st *stack) serve(h protocol.MuxHandler, hello func() protocol.Hello) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.listeners = append(st.listeners, ln)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// ServeMux returns the accept error of the closed listener; close()
		// causes it, so there is nothing to report.
		_ = protocol.ServeMux(countingListener{Listener: ln, wire: &st.wire}, h, protocol.MuxServerConfig{Hello: hello})
	}()
	return ln.Addr().String(), nil
}

func (st *stack) startDirect(cfg stackConfig) (string, error) {
	scfg := server.DefaultConfig()
	scfg.TreeCache = directTreeCache
	srv, err := server.New(st.g, scfg)
	if err != nil {
		return "", fmt.Errorf("building server: %w", err)
	}
	st.shards = []*server.Server{srv}
	return st.serve(cfg.tracer.wrapStreamer("server.handle", srv.MuxHandler()), srv.HelloInfo)
}

func (st *stack) startFleet(cfg stackConfig) (string, error) {
	part, err := roadnet.BuildPartition(st.g, roadnet.PartitionConfig{Cells: partitionCells})
	if err != nil {
		return "", fmt.Errorf("partitioning road map: %w", err)
	}
	st.part = part

	// The overlay is contracted once and every shard loads its own copy from
	// the serialised form, as separate server processes would from a file.
	start := time.Now()
	overlay, err := ch.BuildCustomizablePartitioned(st.g, part)
	if err != nil {
		return "", fmt.Errorf("building overlay: %w", err)
	}
	st.chBuildS = time.Since(start).Seconds()
	var file bytes.Buffer
	if err := ch.Write(overlay, &file); err != nil {
		return "", fmt.Errorf("serialising overlay: %w", err)
	}

	dialers := make([]fleet.Dialer, numShards)
	for i := range dialers {
		start := time.Now()
		loaded, err := ch.Read(bytes.NewReader(file.Bytes()))
		if err != nil {
			return "", fmt.Errorf("loading overlay: %w", err)
		}
		st.chLoadMS = float64(time.Since(start).Microseconds()) / 1000
		scfg := server.DefaultConfig()
		scfg.Strategy = server.StrategyHybrid
		scfg.CHOverlay = loaded
		srv, err := server.New(st.g, scfg)
		if err != nil {
			return "", fmt.Errorf("building shard %d: %w", i, err)
		}
		st.shards = append(st.shards, srv)
		addr, err := st.serve(cfg.tracer.wrapStreamer("server.handle", srv.MuxHandler()), srv.HelloInfo)
		if err != nil {
			return "", err
		}
		dialers[i] = func() (*protocol.MuxClient, error) {
			return protocol.DialMux(addr, protocol.Hello{Node: "router", Role: "router"})
		}
	}

	st.router, err = fleet.New(fleet.Config{Mode: fleet.ModePartition, Partition: part}, dialers)
	if err != nil {
		return "", fmt.Errorf("building router: %w", err)
	}
	routerAddr, err := st.serve(cfg.tracer.wrapStreamer("fleet.handle", st.router.MuxHandler()), st.router.HelloInfo)
	if err != nil {
		return "", err
	}

	st.exec, err = obfsvc.DialMuxExecutor(routerAddr)
	if err != nil {
		return "", fmt.Errorf("obfuscator connecting to router: %w", err)
	}
	var exec obfsvc.BatchExecutor = cfg.tracer.wrapExecutor(st.exec)
	if cfg.wrapExecutor != nil {
		exec = cfg.wrapExecutor(exec)
	}
	ocfg := obfsvc.DefaultConfig()
	ocfg.Obfuscation.Mode = cfg.w.mode
	ocfg.Obfuscation.Seed = cfg.seed
	ocfg.Obfuscation.Selector = obfuscate.MustNewRingBandSelector(2000, 15000, cfg.seed)
	ocfg.BatchWindow = cfg.w.window
	st.svc, err = obfsvc.New(st.g, exec, ocfg)
	if err != nil {
		return "", fmt.Errorf("building obfuscator: %w", err)
	}
	return st.serve(cfg.tracer.wrapHandler("obfsvc.handle", st.svc.MuxHandler()),
		func() protocol.Hello { return protocol.Hello{Role: "obfuscator"} })
}

// close stops every tier front to back and waits until every serving
// goroutine has returned.
func (st *stack) close() {
	for _, c := range st.conns {
		c.Close()
	}
	if st.svc != nil {
		st.svc.Flush()
	}
	if st.exec != nil {
		st.exec.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, ln := range st.listeners {
		ln.Close()
	}
	st.serving.Wait()
}
