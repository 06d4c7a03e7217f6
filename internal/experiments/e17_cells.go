package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"opaque/internal/ch"
	"opaque/internal/gen"
	"opaque/internal/roadnet"
)

// E17CellUpdates measures the arc-level weight update
// (ch.Overlay.RecustomizeIncremental) against E16's flat refresh: instead of
// re-running the triangle pass over the whole arena, a rank-ordered worklist
// re-derives the changed arcs and only the arcs above them that the change
// actually moves. The experiment sweeps how far an update spreads over the
// map — one interior arc changed in each of k partition cells — and reports
// the arcs re-derived and the milliseconds per update beside the baseline on
// identical changes: the full re-customization (ch.Overlay.Recustomize, E16's
// refresh).
//
// The speedup column is full re-customization against the arc-level update.
// The acceptance bar is ≥ 5x for a single changed arc on the full-scale
// (50k-node) graph; work grows with the number of changed arcs, not with the
// cells they lie in. Every incremental overlay is verified against reference
// Dijkstra on the updated graph before its row is reported, and a row fails
// outright if the update re-derived arcs of a cell it changed nothing in —
// an interior change can only move arcs of its own cell and of the boundary
// top layer.
type E17CellUpdates struct{}

// ID implements Runner.
func (E17CellUpdates) ID() string { return "E17" }

// Description implements Runner.
func (E17CellUpdates) Description() string {
	return "Arc-level weight updates: arcs re-derived and ms per update vs full pass"
}

// e17Cells is the partition size E17 contracts with: small enough that every
// cell has interior arcs at both scales, large enough to spread an update
// over 16 distinct cells.
const e17Cells = 32

// Run implements Runner.
func (E17CellUpdates) Run(scale Scale) ([]*Table, error) {
	nodes := networkNodes(scale, 6000, 50000)
	touched := []int{1, 2, 4, 16}
	checks := queries(scale, 20, 50)

	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = gen.TigerLike
	netCfg.Nodes = nodes
	netCfg.Seed = 1717
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}

	part, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: e17Cells, Seed: 1718})
	if err != nil {
		return nil, err
	}
	overlay, err := ch.BuildCustomizablePartitioned(g, part)
	if err != nil {
		return nil, err
	}
	// Untimed no-op update: builds the overlay's downward adjacency, which a
	// serving overlay derives once, on its first update.
	if _, _, err := overlay.RecustomizeIncremental(g); err != nil {
		return nil, err
	}

	// One interior arc per cell (both endpoints inside, neither boundary):
	// changing it can move arcs of that cell and of the top layer only.
	cellArc := make(map[int]roadnet.ArcWeightChange, e17Cells)
	for v := 0; v < g.NumNodes(); v++ {
		cv, bv := overlay.CellOfNode(roadnet.NodeID(v))
		if bv {
			continue
		}
		if _, ok := cellArc[cv]; ok {
			continue
		}
		for _, a := range g.Arcs(roadnet.NodeID(v)) {
			if a.To == roadnet.NodeID(v) {
				continue
			}
			if ct, bt := overlay.CellOfNode(a.To); !bt && ct == cv {
				cellArc[cv] = roadnet.ArcWeightChange{From: roadnet.NodeID(v), To: a.To}
				break
			}
		}
	}
	var cellsWithArcs []int
	for c := 0; c < e17Cells; c++ {
		if _, ok := cellArc[c]; ok {
			cellsWithArcs = append(cellsWithArcs, c)
		}
	}
	if len(cellsWithArcs) < touched[len(touched)-1] {
		return nil, fmt.Errorf("experiments: E17: only %d of %d cells have interior arcs", len(cellsWithArcs), e17Cells)
	}

	tbl := &Table{
		ID: "E17",
		Title: "Arc-level weight updates: arcs re-derived vs full pass (" +
			itoa(nodes) + " nodes, " + itoa(e17Cells) + " cells, " +
			itoa(overlay.NumOriginalArcs()+overlay.NumShortcuts()) + " arena arcs)",
		Columns: []string{"changed arcs (one per cell)", "arcs re-derived", "arc-level ms",
			"full recustomize ms", "speedup vs full recustomize"},
	}

	rng := rand.New(rand.NewSource(1719))
	for _, k := range touched {
		changes := make([]roadnet.ArcWeightChange, 0, k)
		for _, c := range cellsWithArcs[:k] {
			arc := cellArc[c]
			cur, ok := g.ArcCost(arc.From, arc.To)
			if !ok {
				return nil, fmt.Errorf("experiments: E17: arc %d→%d vanished", arc.From, arc.To)
			}
			// Always a real change: scale away from the current cost.
			arc.NewCost = cur*(1.25+rng.Float64()) + 1
			changes = append(changes, arc)
		}
		g2, err := g.WithUpdatedWeights(changes)
		if err != nil {
			return nil, err
		}

		// Both sides are deterministic functions of (overlay, g2); the fastest
		// of three repetitions keeps a collector cycle out of the row.
		var fresh *ch.Overlay
		var stats ch.RecustomizeStats
		incMS, err := fastestMS(3, func() (err error) {
			fresh, stats, err = overlay.RecustomizeIncremental(g2)
			return err
		})
		if err != nil {
			return nil, err
		}
		if stats.Full || stats.ArcsRederived < k || len(stats.Recustomized) != k {
			return nil, fmt.Errorf("experiments: E17: %d interior-arc changes in %d cells re-derived %d arcs in cells %v (full=%v)",
				k, k, stats.ArcsRederived, stats.Recustomized, stats.Full)
		}

		fullMS, err := fastestMS(3, func() error {
			_, err := overlay.Recustomize(g2)
			return err
		})
		if err != nil {
			return nil, err
		}

		if err := verifyOverlay(fresh, g2, checks, rng); err != nil {
			return nil, err
		}
		tbl.AddRow(k, stats.ArcsRederived, incMS, fullMS, fullMS/incMS)
		overlay, g = fresh, g2
	}

	tbl.AddNote("arc-level = ch.Overlay.RecustomizeIncremental: diff against the last-customized road costs, re-derive each changed arc from its lower triangles in rank order, and follow a change upwards only through triangles whose new leg sum beats the target or whose old leg sum supported it. full = ch.Overlay.Recustomize on identical changes (one goroutine per cell). Both clone the weight layer first, an O(arena) copy that is the floor of the arc-level column; the overlay's downward adjacency was built by an untimed no-op update.")
	tbl.AddNote("One changed arc lies strictly inside each of k cells; the run fails if arcs of any other cell are re-derived. Each incremental overlay was verified against reference Dijkstra on the updated graph (%d sampled pairs per row).", checks)
	tbl.AddNote("Acceptance bar: arc-level >= 5x faster than the full re-customization for a single changed arc at full scale; the arc-level cost follows the arcs re-derived column, the full pass is flat.")
	return []*Table{tbl}, nil
}

// fastestMS runs fn reps times and returns the shortest wall time in
// milliseconds.
func fastestMS(reps int, fn func() error) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Microseconds()) / 1000, nil
}
