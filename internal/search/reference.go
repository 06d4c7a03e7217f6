package search

import (
	"math"

	"opaque/internal/pqueue"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// This file preserves the pre-workspace, fresh-slice search implementations:
// every call allocates two O(n) arrays, Inf-fills them, and builds a
// map-indexed priority queue from scratch. They are retained deliberately —
// not as dead code — for two jobs:
//
//   - executable specification: the workspace equivalence property tests
//     assert that a pooled, epoch-stamped Workspace reused across randomized
//     queries (and across graph generations) returns byte-identical paths
//     and statistics to these references;
//   - measured baseline: BenchmarkWorkspaceReuse quantifies the hot-path
//     win (allocs/op, queries/sec) against exactly the code the refactor
//     replaced.
//
// They must not be used on any serving path.

// ReferenceDijkstra is the fresh-slice Dijkstra the workspace refactor
// replaced: identical semantics to Dijkstra, O(n) setup cost per call.
func ReferenceDijkstra(acc storage.Accessor, source, dest roadnet.NodeID) (Path, Stats, error) {
	if err := checkEndpoints(acc, source, dest); err != nil {
		return Path{}, Stats{}, err
	}
	n := acc.NumNodes()
	dist := newDistSlice(n)
	parent := newParentSlice(n)
	var stats Stats

	pq := pqueue.NewWithCapacity(64)
	dist[source] = 0
	pq.Push(int32(source), 0)
	stats.QueueOps++
	// relax is built once per call, not per expansion, so the reference
	// allocates no closure per settled node.
	var u roadnet.NodeID
	relax := func(a roadnet.Arc) bool {
		stats.RelaxedArcs++
		nd := dist[u] + a.Cost
		if nd < dist[a.To] {
			dist[a.To] = nd
			parent[a.To] = u
			pq.Push(int32(a.To), nd)
			stats.QueueOps++
		}
		return true
	}

	for !pq.Empty() {
		if pq.Len() > stats.MaxFrontier {
			stats.MaxFrontier = pq.Len()
		}
		item := pq.Pop()
		u = roadnet.NodeID(item.Value)
		if item.Priority > dist[u] {
			continue // stale entry
		}
		stats.SettledNodes++
		if u == dest {
			return reconstruct(parent, dist, source, dest), stats, nil
		}
		acc.ForEachArc(u, relax)
	}
	return Path{}, stats, nil
}

// ReferenceSSMD is the fresh-slice SSMD the workspace refactor replaced:
// identical semantics to SSMD, including the map-based pending-destination
// set.
func ReferenceSSMD(acc storage.Accessor, source roadnet.NodeID, dests []roadnet.NodeID) (SSMDResult, error) {
	if err := checkSSMDEndpoints(acc, source, dests); err != nil {
		return SSMDResult{}, err
	}
	n := acc.NumNodes()
	dist := newDistSlice(n)
	parent := newParentSlice(n)
	var stats Stats

	pending := make(map[roadnet.NodeID]struct{}, len(dests))
	for _, d := range dests {
		pending[d] = struct{}{}
	}

	pq := pqueue.NewWithCapacity(64)
	dist[source] = 0
	pq.Push(int32(source), 0)
	stats.QueueOps++
	delete(pending, source)
	// relax is built once per call, not per expansion, so the reference
	// allocates no closure per settled node.
	var u roadnet.NodeID
	relax := func(a roadnet.Arc) bool {
		stats.RelaxedArcs++
		nd := dist[u] + a.Cost
		if nd < dist[a.To] {
			dist[a.To] = nd
			parent[a.To] = u
			pq.Push(int32(a.To), nd)
			stats.QueueOps++
		}
		return true
	}

	for !pq.Empty() && len(pending) > 0 {
		if pq.Len() > stats.MaxFrontier {
			stats.MaxFrontier = pq.Len()
		}
		item := pq.Pop()
		u = roadnet.NodeID(item.Value)
		if item.Priority > dist[u] {
			continue
		}
		stats.SettledNodes++
		if _, ok := pending[u]; ok {
			delete(pending, u)
			if len(pending) == 0 {
				break
			}
		}
		acc.ForEachArc(u, relax)
	}

	res := SSMDResult{
		Source: source,
		Dests:  append([]roadnet.NodeID(nil), dests...),
		Paths:  make([]Path, len(dests)),
		Stats:  stats,
	}
	for i, d := range dests {
		if d == source {
			res.Paths[i] = Path{Nodes: []roadnet.NodeID{source}, Cost: 0}
			continue
		}
		if math.IsInf(dist[d], 1) {
			res.Paths[i] = Path{}
			continue
		}
		res.Paths[i] = reconstruct(parent, dist, source, d)
	}
	return res, nil
}

// newDistSlice allocates a fresh Inf-filled distance array — the per-query
// O(n) cost the workspace refactor eliminated from the serving path.
func newDistSlice(n int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	return dist
}

// newParentSlice allocates a fresh InvalidNode-filled parent array.
func newParentSlice(n int) []roadnet.NodeID {
	parent := make([]roadnet.NodeID, n)
	for i := range parent {
		parent[i] = roadnet.InvalidNode
	}
	return parent
}
