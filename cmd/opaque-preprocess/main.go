// Command opaque-preprocess runs the offline contraction-hierarchies pass
// over a road network and persists the resulting overlay in the OCH1 binary
// format (docs/FORMATS.md), so servers can load a prebuilt hierarchy instead
// of contracting the map at startup:
//
//	opaque-preprocess -network network.txt -out network.och
//	opaque-preprocess -generate tigerlike -nodes 50000 -out net.och -check 100
//	opaque-server -network network.txt -strategy hybrid -ch-overlay network.och
//
// The overlay is customizable: a server serving it absorbs live weight
// updates by re-customization. It embeds a checksum of the graph it was
// built from; the server refuses to install it against any other map.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opaque-preprocess: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// errUsage marks a command-line parse failure whose details the flag package
// has already written to the diagnostic stream.
var errUsage = errors.New("invalid command line")

// run parses args, builds the overlay and writes it, reporting progress to
// out. It is the testable core of the command.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("opaque-preprocess", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		networkFile = fs.String("network", "", "road network file in roadnet text format")
		generate    = fs.String("generate", "", "generate a network instead of loading one: grid | geometric | ringradial | tigerlike")
		nodes       = fs.Int("nodes", 10000, "node count when generating")
		seed        = fs.Uint64("seed", 42, "generation seed")
		outFile     = fs.String("out", "", "output overlay file (required)")
		check       = fs.Int("check", 0, "verify this many random queries against Dijkstra after building")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *outFile == "" {
		fmt.Fprintln(errOut, "opaque-preprocess: -out is required")
		return errUsage
	}

	g, err := gen.LoadOrGenerate(*networkFile, *generate, *nodes, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "road network: %d nodes, %d arcs\n", g.NumNodes(), g.NumArcs())

	start := time.Now()
	overlay, err := ch.BuildCustomizable(g)
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	fmt.Fprintf(out, "contracted in %v (customizable, absorbs live weight updates): %d shortcuts over %d original arcs (%.2fx), max level %d\n",
		buildTime.Round(time.Millisecond), overlay.NumShortcuts(), overlay.NumOriginalArcs(),
		float64(overlay.NumShortcuts())/float64(max(overlay.NumOriginalArcs(), 1)), overlay.MaxLevel())

	if *check > 0 {
		if err := verify(out, g, overlay, *check, *seed); err != nil {
			return err
		}
	}

	if err := ch.WriteFile(overlay, *outFile); err != nil {
		return err
	}
	if info, err := os.Stat(*outFile); err == nil {
		fmt.Fprintf(out, "overlay written to %s (%d bytes, checksum %016x)\n", *outFile, info.Size(), overlay.Checksum())
	}
	return nil
}

// verify cross-checks n random point queries — 1×1 many-to-many tables, the
// shape a server answers one pair with — between the overlay and plain
// workspace Dijkstra and reports the observed speedup, then runs one 2×2
// table so a shipped overlay is also validated on a table whose sweeps
// share buckets.
func verify(out io.Writer, g *roadnet.Graph, overlay *ch.Overlay, n int, seed uint64) error {
	acc := storage.NewMemoryGraph(g)
	mtm := ch.NewMTM(overlay, nil)
	cell := make([]float64, 1)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	var chTime, djTime time.Duration
	for i := 0; i < n; i++ {
		s := roadnet.NodeID(rng.Intn(g.NumNodes()))
		d := roadnet.NodeID(rng.Intn(g.NumNodes()))
		t0 := time.Now()
		_, _, err := mtm.DistancesInto(cell, []roadnet.NodeID{s}, []roadnet.NodeID{d})
		if err != nil {
			return err
		}
		chTime += time.Since(t0)
		got := cell[0]
		t0 = time.Now()
		want, err := search.DijkstraDistance(acc, s, d)
		if err != nil {
			return err
		}
		djTime += time.Since(t0)
		// Compare reachability before applying the relative tolerance: with
		// either side at +Inf the tolerance itself degenerates to +Inf and
		// would wave any finite disagreement through.
		if math.IsInf(got, 1) != math.IsInf(want, 1) {
			return fmt.Errorf("verification failed: pair (%d,%d) CH distance %v, Dijkstra %v (reachability disagrees)", s, d, got, want)
		}
		if got != want && math.Abs(got-want) > 1e-9*(1+want) {
			return fmt.Errorf("verification failed: pair (%d,%d) CH distance %v, Dijkstra %v", s, d, got, want)
		}
	}
	speedup := 0.0
	if chTime > 0 {
		speedup = float64(djTime) / float64(chTime)
	}
	fmt.Fprintf(out, "verified %d random queries against Dijkstra (CH %.1fx faster on this sample)\n", n, speedup)

	// Many-to-many self-check: one 2×2 table against per-pair Dijkstra.
	sources := []roadnet.NodeID{roadnet.NodeID(rng.Intn(g.NumNodes())), roadnet.NodeID(rng.Intn(g.NumNodes()))}
	targets := []roadnet.NodeID{roadnet.NodeID(rng.Intn(g.NumNodes())), roadnet.NodeID(rng.Intn(g.NumNodes()))}
	table, _, err := mtm.Distances(sources, targets)
	if err != nil {
		return fmt.Errorf("mtm self-check failed: %w", err)
	}
	for i, s := range sources {
		for j, d := range targets {
			want, err := search.DijkstraDistance(acc, s, d)
			if err != nil {
				return err
			}
			got := table[i*len(targets)+j]
			if math.IsInf(got, 1) != math.IsInf(want, 1) {
				return fmt.Errorf("mtm self-check failed: pair (%d,%d) MTM distance %v, Dijkstra %v (reachability disagrees)", s, d, got, want)
			}
			if got != want && math.Abs(got-want) > 1e-9*(1+want) {
				return fmt.Errorf("mtm self-check failed: pair (%d,%d) MTM distance %v, Dijkstra %v", s, d, got, want)
			}
		}
	}
	fmt.Fprintf(out, "verified mtm 2x2 table against Dijkstra (many-to-many query mode ok)\n")
	return nil
}
