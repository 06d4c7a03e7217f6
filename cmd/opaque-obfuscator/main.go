// Command opaque-obfuscator runs the trusted OPAQUE obfuscator middlebox: it
// accepts client path queries over TCP, obfuscates them (independent or
// shared mode), forwards the obfuscated path queries to the directions search
// server, filters the candidate result paths and answers each client with its
// own path.
//
// Usage:
//
//	opaque-obfuscator -network network.txt -server localhost:7001 -listen :7002 -mode shared
package main

import (
	"flag"
	"log"
	"math"
	"net"
	"time"

	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("opaque-obfuscator: ")

	var (
		networkFile = flag.String("network", "", "road network file (the obfuscator's simple map)")
		generate    = flag.String("generate", "", "generate a network instead of loading one")
		nodes       = flag.Int("nodes", 10000, "node count when generating")
		seed        = flag.Uint64("seed", 42, "generation seed")
		serverAddr  = flag.String("server", "localhost:7001", "directions search server address")
		listen      = flag.String("listen", ":7002", "TCP listen address for client connections")
		mode        = flag.String("mode", "shared", "obfuscation mode: independent | shared")
		strategy    = flag.String("fakes", "ringband", "fake endpoint strategy: uniform | ringband | density")
		window      = flag.Duration("window", 50*time.Millisecond, "batching window for shared obfuscation")
		maxBatch    = flag.Int("max-batch", 64, "maximum requests obfuscated together")
	)
	flag.Parse()

	g, err := gen.LoadOrGenerate(*networkFile, *generate, *nodes, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("obfuscator road map loaded: %d nodes", g.NumNodes())

	// Upstream connection to the directions search server (or a fleet
	// router, which speaks the same protocol): one persistent multiplexed
	// connection.
	exec, err := obfsvc.DialMuxExecutor(*serverAddr)
	if err != nil {
		log.Fatalf("connecting to directions search server: %v", err)
	}
	defer exec.Close()

	cfg := obfsvc.DefaultConfig()
	cfg.BatchWindow = *window
	cfg.MaxBatch = *maxBatch
	cfg.Obfuscation.Mode = obfuscate.Mode(*mode)
	cfg.Obfuscation.Selector, err = buildSelector(g, *strategy, *seed)
	if err != nil {
		log.Fatal(err)
	}

	svc, err := obfsvc.New(g, exec, cfg)
	if err != nil {
		log.Fatalf("building obfuscator service: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("obfuscator ready on %s (mode=%s, fakes=%s, server=%s)", ln.Addr(), *mode, *strategy, *serverAddr)
	if err := svc.ServeMux(ln, protocol.MuxServerConfig{}); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

func buildSelector(g *roadnet.Graph, strategy string, seed uint64) (obfuscate.EndpointSelector, error) {
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	switch strategy {
	case "uniform":
		return obfuscate.NewUniformSelector(seed), nil
	case "density":
		return obfuscate.NewDensityAwareSelector(0.15*extent, seed)
	default:
		return obfuscate.NewRingBandSelector(0.02*extent, 0.15*extent, seed)
	}
}
