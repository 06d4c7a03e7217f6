// Package search implements the shortest-path machinery the OPAQUE server
// needs: the single-source multi-destination (SSMD) search the paper builds
// its cost argument on (Section III-B), the multi-source multi-destination
// (MSMD) obfuscated path query processor (Section IV) that evaluates Q(S, T)
// by running one SSMD spanning tree per source, the per-pair Dijkstra
// baseline the experiments compare it against, and the fresh-slice
// reference searches every faster evaluator is checked against.
//
// Every algorithm runs against a storage.Accessor, so the same code paths are
// measured both in memory and against the paged disk simulation, and every
// search reports Stats (settled nodes, relaxed arcs) that the experiments
// consume beside the page I/O of the accessor's buffer pool.
//
// # The query hot path
//
// All searches execute on an epoch-stamped Workspace: distance labels,
// parent pointers, settled flags and the priority queue live in arrays whose
// entries are valid only for the current epoch, so preparing a workspace for
// the next query is a counter bump instead of an O(n) Inf-fill, and per-query
// cost is proportional to the nodes the search actually touches. The
// package's searches draw their workspaces from a sync.Pool-backed
// WorkspacePool per query and return them before they return; no caller
// outside the package handles a checkout. The inner relax loop
// streams arcs through storage.Accessor.ForEachArc over the road network's
// CSR arc array and allocates nothing in steady state. The pre-workspace
// fresh-slice implementations are preserved in reference.go as the
// executable specification the equivalence property tests and
// BenchmarkWorkspaceReuse compare against.
//
// The contraction-hierarchy many-to-many engine of internal/ch evaluates a
// whole Q(S, T) into the same Table the processor builds; the server calls it
// directly for every query on an overlay. Its sweeps walk the overlay's
// elimination tree on label stores of their own and draw no Workspace.
package search

import (
	"fmt"
	"math"

	"opaque/internal/roadnet"
)

// Path is a route through the network: the ordered node sequence from source
// to destination and its total cost. A Path with a single node and zero cost
// is the degenerate s == t case.
type Path struct {
	Nodes []roadnet.NodeID
	Cost  float64
}

// Source returns the first node of the path, or InvalidNode when empty.
func (p Path) Source() roadnet.NodeID {
	if len(p.Nodes) == 0 {
		return roadnet.InvalidNode
	}
	return p.Nodes[0]
}

// Dest returns the last node of the path, or InvalidNode when empty.
func (p Path) Dest() roadnet.NodeID {
	if len(p.Nodes) == 0 {
		return roadnet.InvalidNode
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Len returns the number of edges on the path.
func (p Path) Len() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Empty reports whether the path has no nodes (no route found).
func (p Path) Empty() bool { return len(p.Nodes) == 0 }

// String renders a short human-readable form.
func (p Path) String() string {
	if p.Empty() {
		return "Path{unreachable}"
	}
	return fmt.Sprintf("Path{%d->%d, %d edges, cost %.1f}", p.Source(), p.Dest(), p.Len(), p.Cost)
}

// Validate checks that the path is a real walk in g (every consecutive pair is
// connected by an arc) and that Cost equals the sum of the cheapest arc costs
// along it within tolerance. It returns nil for the empty path.
func (p Path) Validate(g *roadnet.Graph) error {
	if p.Empty() {
		return nil
	}
	total := 0.0
	for i := 0; i+1 < len(p.Nodes); i++ {
		cost, ok := g.ArcCost(p.Nodes[i], p.Nodes[i+1])
		if !ok {
			return fmt.Errorf("search: path step %d: no arc from %d to %d", i, p.Nodes[i], p.Nodes[i+1])
		}
		total += cost
	}
	if math.Abs(total-p.Cost) > 1e-6*(1+math.Abs(total)) {
		return fmt.Errorf("search: path cost %v does not match sum of arc costs %v", p.Cost, total)
	}
	return nil
}

// reconstruct walks parent pointers backward from dest and returns the path.
// parent[source] must be InvalidNode.
func reconstruct(parent []roadnet.NodeID, dist []float64, source, dest roadnet.NodeID) Path {
	if math.IsInf(dist[dest], 1) {
		return Path{}
	}
	var rev []roadnet.NodeID
	for at := dest; at != roadnet.InvalidNode; at = parent[at] {
		rev = append(rev, at)
		if at == source {
			break
		}
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) == 0 || rev[0] != source {
		return Path{}
	}
	return Path{Nodes: rev, Cost: dist[dest]}
}

// Stats describes the algorithmic work one search performed. It counts no
// I/O: a caller running the search against paged storage reads page faults
// off the accessor's buffer pool.
type Stats struct {
	// SettledNodes is the number of nodes whose final shortest distance was
	// fixed (popped from the priority queue, or reached with a finite label
	// by a CH elimination-tree walk).
	SettledNodes int
	// RelaxedArcs is the number of arcs examined.
	RelaxedArcs int
	// QueueOps is the number of priority-queue pushes and decrease-keys.
	// It is 0 for searches that use no queue, such as the CH overlay's
	// elimination-tree walks.
	QueueOps int
	// MaxFrontier is the peak size of the priority queue; 0 where QueueOps
	// is.
	MaxFrontier int
}

// Add accumulates other into s and returns the sum.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		SettledNodes: s.SettledNodes + other.SettledNodes,
		RelaxedArcs:  s.RelaxedArcs + other.RelaxedArcs,
		QueueOps:     s.QueueOps + other.QueueOps,
		MaxFrontier:  maxInt(s.MaxFrontier, other.MaxFrontier),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
