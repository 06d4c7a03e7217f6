package ch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/storage"
)

// Engine answers point shortest-path queries on an Overlay with two upward
// searches: the forward search from s relaxes only overlay arcs toward
// higher-ranked nodes, the backward search from t only reversed arcs from
// higher-ranked nodes, and the two meet at the apex of the optimal up-down
// path. Both searches walk elimination-tree ancestors on a pooled pair of
// label stores (etree.go), so a distance query performs zero heap
// allocations in steady state; path queries additionally unpack the
// shortcut chain into the original-arc route.
//
// Engine implements search.PointEngine and is safe for concurrent use: the
// overlay is read-only and all per-query state is pooled.
type Engine struct {
	o *Overlay
	// verified memoises the last accessor graph proven (by checksum) to be
	// the one the overlay was built from, so the O(arcs) Matches check runs
	// once per graph instead of once per query.
	verified atomic.Pointer[roadnet.Graph]
	// gen is the accessor data generation the overlay's weights are valid
	// for (search.Generational): the installer binds it with BindGeneration
	// so the processor refuses the engine once the accessor's generation
	// moves past it, without waiting for the checksum check to fail.
	gen atomic.Uint64
}

// NewEngine returns a query engine over o. The second parameter is unused:
// queries draw no search workspace. It goes at the next change to the
// benchmark harness, which still passes it.
func NewEngine(o *Overlay, _ *search.WorkspacePool) *Engine {
	return &Engine{o: o}
}

// Overlay returns the overlay the engine queries.
func (e *Engine) Overlay() *Overlay { return e.o }

// BindGeneration records the accessor data generation the overlay's weights
// were customized for. Servers call it when installing or swapping the
// engine; see search.Generational.
func (e *Engine) BindGeneration(gen uint64) { e.gen.Store(gen) }

// Generation implements search.Generational.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// AppendShortestPath implements search.PointEngine: the full shortest path
// from source to dest with shortcuts unpacked, appended to dst (nothing, at
// cost +Inf, when dest is unreachable). CH reads the preprocessed index, not
// the graph — which is the whole point — so the accessor must present exactly
// the arcs the overlay was contracted over: its underlying graph is
// checksum-verified against the overlay (once per graph, memoised), and
// arc-filtering accessors (storage.FilteredGraph), whose effective arc set
// differs from the graph they report, are rejected outright. acc may be nil
// for direct callers that take responsibility for the binding themselves.
func (e *Engine) AppendShortestPath(dst []roadnet.NodeID, acc storage.Accessor, source, dest roadnet.NodeID) ([]roadnet.NodeID, float64, search.Stats, error) {
	if acc != nil {
		if _, filtered := acc.(*storage.FilteredGraph); filtered {
			return dst, 0, search.Stats{}, fmt.Errorf("ch: overlay cannot serve a filtered accessor — the hierarchy was contracted over the unfiltered arcs; query the filtered graph with the flat searches instead")
		}
		g := acc.Graph()
		if e.verified.Load() != g {
			if err := e.o.Matches(g); err != nil {
				return dst, 0, search.Stats{}, fmt.Errorf("ch: accessor does not present the overlay's graph (%v): %w", err, search.ErrStaleEngine)
			}
			e.verified.Store(g)
		}
	}
	return e.query(dst, source, dest, true)
}

// Path returns the shortest path from source to dest with shortcuts
// unpacked, or an empty path when dest is unreachable.
func (e *Engine) Path(source, dest roadnet.NodeID) (search.Path, search.Stats, error) {
	nodes, d, stats, err := e.query(nil, source, dest, true)
	if err != nil || len(nodes) == 0 {
		return search.Path{}, stats, err
	}
	return search.Path{Nodes: nodes, Cost: d}, stats, nil
}

// Distance returns only the shortest-path distance from source to dest
// (+Inf when unreachable). It skips meeting-node bookkeeping for the path
// and performs no heap allocation in steady state.
func (e *Engine) Distance(source, dest roadnet.NodeID) (float64, search.Stats, error) {
	_, d, stats, err := e.query(nil, source, dest, false)
	return d, stats, err
}

// pointLabels recycles the forward and backward label stores of point
// queries. Like mtmStates it lives outside the engine and holds nothing of
// an overlay.
var pointLabels = sync.Pool{New: func() any { return new([2]treeLabels) }}

// query is the point search shared by the path and distance faces: it
// returns the distance (+Inf when unreachable) and, when needPath is set, dst
// extended by the unpacked route. The forward search walks the source's
// elimination-tree ancestors, the backward search the destination's, and the
// shortest up-down path meets at a common ancestor — the minimum of df + db
// over the destination's chain, where df is finite only on the source's.
func (e *Engine) query(dst []roadnet.NodeID, source, dest roadnet.NodeID, needPath bool) ([]roadnet.NodeID, float64, search.Stats, error) {
	o := e.o
	var stats search.Stats
	if !validNode(o, source) {
		return dst, 0, stats, fmt.Errorf("ch: invalid source node %d", source)
	}
	if !validNode(o, dest) {
		return dst, 0, stats, fmt.Errorf("ch: invalid destination node %d", dest)
	}
	if source == dest {
		if needPath {
			dst = append(dst, source)
		}
		return dst, 0, stats, nil
	}
	lab := pointLabels.Get().(*[2]treeLabels)
	defer pointLabels.Put(lab)
	f, b := &lab[0], &lab[1]
	f.grow(o.n)
	b.grow(o.n)
	o.walkUp(f, source, o.fwdOff, o.fwdTo, o.fwdCost, &stats)
	o.walkUp(b, dest, o.bwdOff, o.bwdTo, o.bwdCost, &stats)
	best, meet := math.Inf(1), roadnet.InvalidNode
	for u := int32(dest); u >= 0; u = o.etree[u] {
		if d := f.dist[u] + b.dist[u]; d < best {
			best, meet = d, roadnet.NodeID(u)
		}
		b.dist[u] = math.Inf(1)
	}
	o.clearChain(f, source)
	if meet == roadnet.InvalidNode || !needPath {
		return dst, best, stats, nil
	}

	// Forward half: the relaxing arcs meet→source, stacked and unpacked in
	// source→meet order. Backward half: the relaxing arcs already run
	// meet→dest in travel order. via holds CSR slots; each maps to its
	// arena arc here.
	start := len(dst)
	var chainBuf [32]int32
	chain := chainBuf[:0]
	for at := meet; at != source; {
		a := f.via[at]
		if a < 0 {
			return dst, 0, stats, fmt.Errorf("ch: internal error: forward walk does not reach source %d", source)
		}
		a = o.fwdArc[a]
		chain = append(chain, a)
		at = roadnet.NodeID(o.arcs[a].from)
	}
	dst = append(dst, source)
	for i := len(chain) - 1; i >= 0; i-- {
		dst = o.appendArc(dst, chain[i])
	}
	for at := meet; at != dest; {
		a := b.via[at]
		if a < 0 {
			return dst[:start], 0, stats, fmt.Errorf("ch: internal error: backward walk does not reach destination %d", dest)
		}
		a = o.bwdArc[a]
		dst = o.appendArc(dst, a)
		at = roadnet.NodeID(o.arcs[a].to)
	}
	return dst, best, stats, nil
}

// appendArc appends the node sequence of arena arc idx excluding its tail:
// original arcs append their head, shortcuts recurse into their two halves in
// travel order.
func (o *Overlay) appendArc(dst []roadnet.NodeID, idx int32) []roadnet.NodeID {
	a := &o.arcs[idx]
	if a.childA < 0 {
		return append(dst, roadnet.NodeID(a.to))
	}
	return o.appendArc(o.appendArc(dst, a.childA), a.childB)
}

func validNode(o *Overlay, v roadnet.NodeID) bool {
	return v >= 0 && int(v) < o.n
}
