package storage

import "opaque/internal/roadnet"

// ArcFilter decides whether an arc may be traversed. The OPAQUE paper's
// introduction mentions that a directions search may carry additional
// conditions such as "avoid highways"; FilteredGraph implements such
// conditions as a view over any Accessor without copying the graph.
type ArcFilter func(from roadnet.NodeID, arc roadnet.Arc) bool

// FilteredGraph is an Accessor that hides the arcs rejected by the filter.
// I/O accounting of the underlying accessor is preserved: a node's page is
// charged when its adjacency list is read, regardless of how many arcs
// survive the filter, matching how a real server would read the page and then
// skip unwanted road segments.
//
// ForEachArc filters inline with no buffering and is safe for concurrent
// use; since every search in internal/search iterates arcs through
// ForEachArc, a single FilteredGraph can serve concurrent searches. Arcs, by
// contrast, materialises the surviving arcs into a reused buffer and remains
// unsafe for concurrent use — callers that need the slice form from multiple
// goroutines must wrap each worker with its own instance.
type FilteredGraph struct {
	inner  Accessor
	filter ArcFilter
	// buf is reused across Arcs calls (not used by ForEachArc).
	buf []roadnet.Arc
}

// NewFilteredGraph wraps an accessor with an arc filter. A nil filter admits
// every arc.
func NewFilteredGraph(inner Accessor, filter ArcFilter) *FilteredGraph {
	return &FilteredGraph{inner: inner, filter: filter}
}

// AvoidNodes returns a filter that rejects arcs entering any of the given
// nodes, e.g. to route around closed intersections.
func AvoidNodes(nodes ...roadnet.NodeID) ArcFilter {
	blocked := make(map[roadnet.NodeID]struct{}, len(nodes))
	for _, id := range nodes {
		blocked[id] = struct{}{}
	}
	return func(_ roadnet.NodeID, arc roadnet.Arc) bool {
		_, hit := blocked[arc.To]
		return !hit
	}
}

// MaxArcCost returns a filter that rejects arcs costlier than the limit —
// a simple stand-in for "avoid highways" on networks where highways are the
// long, high-cost shortcut edges.
func MaxArcCost(limit float64) ArcFilter {
	return func(_ roadnet.NodeID, arc roadnet.Arc) bool {
		return arc.Cost <= limit
	}
}

// NumNodes implements Accessor.
func (f *FilteredGraph) NumNodes() int { return f.inner.NumNodes() }

// Arcs implements Accessor, returning only the arcs admitted by the filter.
// The returned slice is valid until the next Arcs call on this instance.
func (f *FilteredGraph) Arcs(id roadnet.NodeID) []roadnet.Arc {
	arcs := f.inner.Arcs(id)
	if f.filter == nil {
		return arcs
	}
	f.buf = f.buf[:0]
	for _, a := range arcs {
		if f.filter(id, a) {
			f.buf = append(f.buf, a)
		}
	}
	return f.buf
}

// ForEachArc implements Accessor, streaming only the arcs admitted by the
// filter. No buffer is involved, so this path is safe for concurrent use.
func (f *FilteredGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	if f.filter == nil {
		f.inner.ForEachArc(id, yield)
		return
	}
	f.inner.ForEachArc(id, func(a roadnet.Arc) bool {
		if !f.filter(id, a) {
			return true
		}
		return yield(a)
	})
}

// Graph implements Accessor.
func (f *FilteredGraph) Graph() *roadnet.Graph { return f.inner.Graph() }
