package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"opaque/internal/roadnet"
)

// This file is the storage layer's mutable weight view: the accessor a
// server installs when the road network's costs can change while queries are
// in flight (live traffic, closures). The design is snapshot-based:
//
//   - MutableGraph holds an atomic pointer to the current (graph,
//     generation) pair. UpdateWeights derives a new graph copy-on-write
//     (roadnet.Graph.WithUpdatedWeights), bumps the generation and swaps the
//     pointer — readers never observe a half-applied update.
//   - GraphSnapshot is one immutable (graph, generation) pair. A query that
//     pins a snapshot at admission (see Snapshotter) evaluates entirely
//     against one generation: the table it returns is all-old or all-new,
//     never mixed, no matter how many updates land mid-flight.
//
// Generation numbers drive cache invalidation exactly as for the other
// versioned accessors (search.TreeCache keys trees by generation); the
// graph's ContentChecksum — re-derived incrementally by the copy-on-write
// update — is what checksum-bound structures (the CH overlay) compare
// against to detect staleness.

// Snapshotter is implemented by accessors whose data can move under them.
// Snapshot returns an immutable view of the current data: an Accessor whose
// graph and generation never change, so one query evaluated entirely against
// it is internally consistent even while updates land concurrently.
// Accessors that do not implement Snapshotter are themselves immutable
// enough to serve as their own snapshot.
type Snapshotter interface {
	Snapshot() Accessor
}

// SnapshotOf returns the accessor itself, or — when it supports snapshotting
// — an immutable view of its current data. Query evaluations call this once
// at admission and use the result throughout.
func SnapshotOf(acc Accessor) Accessor {
	if s, ok := acc.(Snapshotter); ok {
		return s.Snapshot()
	}
	return acc
}

// GraphSnapshot is one immutable (graph, generation) pair of a MutableGraph.
// It is a free-access Accessor like MemoryGraph, plus a fixed Versioned
// generation.
type GraphSnapshot struct {
	g   *roadnet.Graph
	gen uint64
}

// NumNodes implements Accessor.
func (s *GraphSnapshot) NumNodes() int { return s.g.NumNodes() }

// Arcs implements Accessor.
func (s *GraphSnapshot) Arcs(id roadnet.NodeID) []roadnet.Arc { return s.g.Arcs(id) }

// ForEachArc implements Accessor.
func (s *GraphSnapshot) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	s.g.ForEachArc(id, yield)
}

// Graph implements Accessor.
func (s *GraphSnapshot) Graph() *roadnet.Graph { return s.g }

// Generation implements Versioned: the generation is fixed for the
// snapshot's lifetime.
func (s *GraphSnapshot) Generation() uint64 { return s.gen }

// MutableGraph is an Accessor over an in-memory road network whose weights
// can be updated while queries run. Reads (the Accessor methods) are served
// from the current snapshot; UpdateWeights swaps in a copy-on-write
// successor graph and bumps the generation. All methods are safe for
// concurrent use.
//
// Note that two Accessor calls on a MutableGraph may observe different
// snapshots when an update lands between them. Query evaluations that must
// be internally consistent pin one snapshot up front via Snapshot (the
// search.Processor does this automatically through storage.SnapshotOf).
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

// Snapshot implements Snapshotter: the current immutable (graph, generation)
// view. The returned value is shared and allocation-free — snapshots are
// created by updates, not by readers.
func (m *MutableGraph) Snapshot() Accessor { return m.cur.Load() }

// UpdateWeights applies every change atomically with respect to concurrent
// readers and returns the data generation the updated weights carry. It
// derives a copy-on-write graph with the changes applied (see
// roadnet.Graph.WithUpdatedWeights for the change semantics and validation),
// bumps the generation and atomically publishes the new snapshot. Concurrent
// readers keep their pinned snapshots; no reader ever observes a partially
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

// NumNodes implements Accessor.
func (m *MutableGraph) NumNodes() int { return m.cur.Load().NumNodes() }

// Arcs implements Accessor.
func (m *MutableGraph) Arcs(id roadnet.NodeID) []roadnet.Arc { return m.cur.Load().Arcs(id) }

// ForEachArc implements Accessor.
func (m *MutableGraph) ForEachArc(id roadnet.NodeID, yield func(roadnet.Arc) bool) {
	m.cur.Load().ForEachArc(id, yield)
}

// Graph implements Accessor: the current graph snapshot.
func (m *MutableGraph) Graph() *roadnet.Graph { return m.cur.Load().g }

// Generation implements Versioned: the generation of the current snapshot.
func (m *MutableGraph) Generation() uint64 { return m.cur.Load().gen }
