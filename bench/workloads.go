package main

import (
	"time"

	"opaque/internal/obfuscate"
)

// A workload is one traffic mix the benchmark drives the stack with. The
// four below are the ones BENCHMARK.json names; each exists because it loads
// layers the others mostly bypass (see README.md, "Workloads").
type workload struct {
	name string
	// open selects open-loop Poisson arrivals at rate operations per second;
	// otherwise the loop is closed with one client per generator connection.
	open bool
	rate float64
	// mode, window, fs and ft configure the obfuscator and the protection
	// every request asks for.
	mode   obfuscate.Mode
	window time.Duration
	fs, ft int
	// churn runs the weight-update writer beside the read traffic.
	churn bool
	// direct bypasses obfuscator and router: the generator sends streaming
	// batches of pre-obfuscated queries to one SSMD server.
	direct bool
	// warmOps is the fixed number of operations each set-up answers before it
	// counts as done; it is part of setup_s.
	warmOps int
}

// Open-loop rates are constants, calibrated once with -calibrate (see
// README.md, "Rate calibration") and never computed at run time, so the
// parent and the change under test always receive identical load.
const (
	// pointCapacityQPS is the closed-loop capacity C measured by -calibrate.
	pointCapacityQPS = 5400.0
	// pointRateQPS is the round number nearest 0.3·C. At 0.5·C the two cores
	// this box shares between stack and generator left client_p99_ms spread
	// over 15 % between runs of one seed; well below 0.3·C the cores idle so
	// much that cpu_ms_per_query is mostly scheduler wake-up cost and spreads
	// over 19 %.
	pointRateQPS = 1600.0
	// churnRateQPS is lower than pointRateQPS: while an overlay is stale the
	// shards answer from the SSMD fallback, which costs several times a CH
	// query, and re-customization takes its share of the cores; the workload
	// must stay below saturation through both.
	churnRateQPS = 800.0
)

// sloRateSteps are the committed rates of the traced pass's throughput-at-SLO
// ladder on point-open: 0.25, 0.5 and 0.75 of C.
var sloRateSteps = []float64{0.25 * pointCapacityQPS, 0.5 * pointCapacityQPS, 0.75 * pointCapacityQPS}

// sloP99 is the latency limit of that ladder.
const sloP99 = 50 * time.Millisecond

// Churn writer shape: one batch of churnArcs arcs every churnInterval,
// alternating between twice the base cost and the base cost.
const (
	churnArcs     = 20
	churnInterval = 500 * time.Millisecond
	churnFactor   = 2.0
)

// Direct-batch shape.
const (
	directBatch     = 32  // queries per streaming DoBatch
	directSide      = 4   // |S| = |T| of every pre-obfuscated query
	directTreeCache = 256 // server tree-cache capacity
	directHotspots  = 4
	directSpread    = 0.05
	// directSourcePool distinct hotspot sources, 1.5x the cache, so hits and
	// misses both occur; directQueryPool queries draw 4 sources each, enough
	// that every source is in use and the working set does not depend on luck.
	directSourcePool = 384
	directQueryPool  = 512
)

// pairPoolSize is how many true (s, t) pairs a run draws its client requests
// from. A pool bounds the oracle's cost (one reference Dijkstra per pair)
// while the obfuscator still draws fresh fake endpoints for every request.
const pairPoolSize = 2048

var workloads = []workload{
	{
		name: "point-open", open: true, rate: pointRateQPS,
		mode: obfuscate.Shared, window: 10 * time.Millisecond, fs: 3, ft: 3,
		warmOps: 300,
	},
	{
		name: "wide-closed",
		mode: obfuscate.Independent, window: 0, fs: 16, ft: 16,
		warmOps: 60,
	},
	{
		name: "churn-open", open: true, rate: churnRateQPS, churn: true,
		mode: obfuscate.Shared, window: 10 * time.Millisecond, fs: 3, ft: 3,
		warmOps: 300,
	},
	{
		name: "direct-batch", direct: true,
		warmOps: 10 * directBatch,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
