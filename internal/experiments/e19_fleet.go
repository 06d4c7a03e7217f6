package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"opaque/internal/fleet"
	"opaque/internal/fleet/fleettest"
	"opaque/internal/gen"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

// E19Fleet measures the sharded serving tier against the single server it
// must be indistinguishable from: the same obfuscated batch workload runs on
// one server, on a router over two partition shards (queries split by cell
// ownership, partial tables merged), and on a router over two replicated
// shards (whole queries round-robin) — all in-process over net.Pipe via the
// fleettest harness, so the table isolates the scatter/gather and transport
// cost rather than kernel networking. Every fleet reply is verified
// candidate-by-candidate against the single-server reference table before it
// counts; the subquery column shows the partition fan-out (subqueries per
// query > 1 means real scatter/gather, not pass-through), and the skew column
// must stay 0 on a quiescent fleet.
type E19Fleet struct{}

// ID implements Runner.
func (E19Fleet) ID() string { return "E19" }

// Description implements Runner.
func (E19Fleet) Description() string {
	return "Fleet serving tier: scatter/gather throughput vs a single server"
}

// Run implements Runner.
func (E19Fleet) Run(scale Scale) ([]*Table, error) {
	nodes := networkNodes(scale, 3000, 20000)
	batches := 6
	perBatch := 24
	if scale == Small {
		batches = 3
		perBatch = 12
	}

	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = nodes
	netCfg.Seed = 1919
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}

	// E15-style obfuscated batch workload: mixed |S|,|T| in [2,4].
	rng := rand.New(rand.NewSource(1920))
	workload := make([][]protocol.ServerQuery, batches)
	qid := uint64(0)
	for b := range workload {
		qs := make([]protocol.ServerQuery, perBatch)
		for i := range qs {
			qid++
			q := protocol.ServerQuery{QueryID: qid}
			for s := 0; s < 2+rng.Intn(3); s++ {
				q.Sources = append(q.Sources, roadnet.NodeID(rng.Intn(g.NumNodes())))
			}
			for d := 0; d < 2+rng.Intn(3); d++ {
				q.Dests = append(q.Dests, roadnet.NodeID(rng.Intn(g.NumNodes())))
			}
			qs[i] = q
		}
		workload[b] = qs
	}

	ref, err := server.New(g, server.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Reference tables, computed once, double as the ground truth every
	// fleet reply is verified against.
	truth := make(map[uint64]protocol.ServerReply)
	for _, qs := range workload {
		for _, q := range qs {
			rep, err := ref.Evaluate(q)
			if err != nil {
				return nil, err
			}
			truth[q.QueryID] = rep
		}
	}

	tbl := &Table{
		ID:    "E19",
		Title: "Fleet serving tier vs single server (" + itoa(nodes) + " nodes, " + itoa(batches*perBatch) + " queries, net.Pipe transport)",
		Columns: []string{"config", "queries", "wall ms", "queries/s",
			"subq/query", "gen skew", "verified"},
	}

	// Single-server baseline through the same batch engine the shards use.
	singleStart := time.Now()
	for _, qs := range workload {
		for i, res := range ref.EvaluateBatch(qs) {
			if res.Err != nil {
				return nil, fmt.Errorf("experiments: E19 single server query %d: %w", qs[i].QueryID, res.Err)
			}
		}
	}
	singleWall := time.Since(singleStart)
	total := batches * perBatch
	tbl.AddRow("single", total, float64(singleWall.Microseconds())/1000,
		float64(total)/singleWall.Seconds(), 1.0, 0, total)

	for _, mode := range []fleet.Mode{fleet.ModePartition, fleet.ModeReplicate} {
		cl, err := fleettest.New(g, fleettest.Options{Shards: 2, Mode: mode})
		if err != nil {
			return nil, err
		}
		verified := 0
		start := time.Now()
		for _, qs := range workload {
			replies, errs := cl.Router.ExecuteBatch(qs)
			for i, qerr := range errs {
				if qerr != nil {
					cl.Close()
					return nil, fmt.Errorf("experiments: E19 %s query %d: %w", mode, qs[i].QueryID, qerr)
				}
				if err := sameTable(replies[i], truth[qs[i].QueryID]); err != nil {
					cl.Close()
					return nil, fmt.Errorf("experiments: E19 %s query %d: %w", mode, qs[i].QueryID, err)
				}
				verified++
			}
		}
		wall := time.Since(start)
		m := cl.Router.Metrics()
		tbl.AddRow(mode.String(), total, float64(wall.Microseconds())/1000,
			float64(total)/wall.Seconds(),
			float64(m.Counter("fleet_subqueries"))/float64(m.Counter("fleet_queries")),
			m.Counter("fleet_generation_skew"), verified)
		cl.Close()
	}

	tbl.AddNote("Router + 2 shards per fleet row, each shard a full server over the replicated map; partition mode splits each query's sources by cell ownership (subq/query > 1) and stitches the partial tables source-major, replicate mode round-robins whole queries (subq/query = 1).")
	tbl.AddNote("Every fleet reply was verified candidate-by-candidate (reachability, cost, node sequence) against the single-server reference table; gen skew counts merges the router refused — 0 on this quiescent fleet, and any refused merge retries rather than ever mixing weight generations.")
	tbl.AddNote("Acceptance bar: verified = queries for every config; the fleet rows pay the framed transport and its codec plus scatter/gather on top of evaluation, so queries/s below the single-server row measures serving-tier overhead, not lost correctness.")
	return []*Table{tbl}, nil
}

// sameTable compares one fleet reply to the reference table exactly.
func sameTable(got, want protocol.ServerReply) error {
	if len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("table has %d candidates, reference %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		gp, wp := got.Paths[i], want.Paths[i]
		if gp.Source != wp.Source || gp.Dest != wp.Dest || gp.Found != wp.Found {
			return fmt.Errorf("slot %d: (%d,%d,found=%v), reference (%d,%d,found=%v)",
				i, gp.Source, gp.Dest, gp.Found, wp.Source, wp.Dest, wp.Found)
		}
		if !gp.Found {
			continue
		}
		if math.Abs(gp.Cost-wp.Cost) > 1e-9 {
			return fmt.Errorf("slot %d: cost %v, reference %v", i, gp.Cost, wp.Cost)
		}
		if len(gp.Nodes) != len(wp.Nodes) {
			return fmt.Errorf("slot %d: path length %d, reference %d", i, len(gp.Nodes), len(wp.Nodes))
		}
		for j := range wp.Nodes {
			if gp.Nodes[j] != wp.Nodes[j] {
				return fmt.Errorf("slot %d: node %d is %d, reference %d", i, j, gp.Nodes[j], wp.Nodes[j])
			}
		}
	}
	return nil
}
