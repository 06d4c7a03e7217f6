package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
)

// This file is the storage layer's mutable weight view: the road network a
// server holds when its costs can change while queries are in flight (live
// traffic, closures). The design is snapshot-based:
//
//   - MutableGraph holds an atomic pointer to the current (graph,
//     generation) pair. UpdateWeights derives a new graph copy-on-write
//     (roadnet.Graph.WithUpdatedWeights), bumps the generation and swaps the
//     pointer — readers never observe a half-applied update.
//   - GraphSnapshot is one immutable (graph, generation) pair, and the only
//     Accessor a MutableGraph hands out. A query evaluated against one
//     snapshot sees one generation: the table it returns is all-old or
//     all-new, never mixed, no matter how many updates land mid-flight.
//
// Generation numbers drive cache invalidation (search.TreeCache keys trees
// by generation); the graph's ContentChecksum — re-derived incrementally by
// the copy-on-write update — is what checksum-bound structures (the CH
// overlay) compare against to detect staleness.

// GraphSnapshot is one immutable (graph, generation) pair of a MutableGraph.
// It is a free-access Accessor like MemoryGraph, plus a fixed Versioned
// generation.
type GraphSnapshot struct {
	g   *roadnet.Graph
	gen uint64
}

// NumNodes implements Accessor.
func (s *GraphSnapshot) NumNodes() int { return s.g.NumNodes() }

// ForEachArc implements Accessor.
func (s *GraphSnapshot) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	s.g.ForEachArc(id, yield)
}

// Graph implements Accessor.
func (s *GraphSnapshot) Graph() *roadnet.Graph { return s.g }

// Generation implements Versioned: the generation is fixed for the
// snapshot's lifetime.
func (s *GraphSnapshot) Generation() uint64 { return s.gen }

// MutableGraph is an in-memory road network whose weights can be updated
// while queries run. It is not an Accessor: it has no read methods, so code
// can read the network only through a Snapshot, and every read of one
// evaluation sees one generation. UpdateWeights swaps in a copy-on-write
// successor snapshot. All methods are safe for concurrent use.
type MutableGraph struct {
	mu  sync.Mutex // serialises writers; readers go through cur only
	cur atomic.Pointer[GraphSnapshot]
}

// NewMutableGraph wraps a frozen graph as generation 0.
func NewMutableGraph(g *roadnet.Graph) *MutableGraph {
	m := &MutableGraph{}
	m.cur.Store(&GraphSnapshot{g: g, gen: 0})
	return m
}

// Snapshot returns the current immutable (graph, generation) view. The
// returned value is shared and allocation-free — snapshots are created by
// updates, not by readers.
func (m *MutableGraph) Snapshot() *GraphSnapshot { return m.cur.Load() }

// UpdateWeights applies every change atomically with respect to concurrent
// readers and returns the data generation the updated weights carry. It
// derives a copy-on-write graph with the changes applied (see
// roadnet.Graph.WithUpdatedWeights for the change semantics and validation),
// bumps the generation and atomically publishes the new snapshot. Concurrent
// readers keep the snapshots they hold; no reader ever observes a partially
// applied update. On error nothing is published and the generation does not
// move.
func (m *MutableGraph) UpdateWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	g, err := cur.g.WithUpdatedWeights(changes)
	if err != nil {
		return cur.gen, fmt.Errorf("storage: updating weights: %w", err)
	}
	next := &GraphSnapshot{g: g, gen: cur.gen + 1}
	m.cur.Store(next)
	return next.gen, nil
}

// Generation returns the generation of the current snapshot.
func (m *MutableGraph) Generation() uint64 { return m.cur.Load().gen }
