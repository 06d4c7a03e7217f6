// Package storage is a miniature stand-in for the real internal/storage,
// carrying just enough surface for the analyzer tests: the Accessor read
// interface, the atomically swapped MutableGraph and the SnapshotOf pin
// helper. The snapshotpin analyzer matches these by package path and type
// name, so the testdata tree is loaded under the same pseudo-module path
// "opaque" as the real module.
package storage

// Graph is the immutable topology a snapshot exposes.
type Graph struct{ N int }

// Accessor is the read interface evaluation code sees.
type Accessor interface {
	NumNodes() int
	Arcs(v int32) []int32
	ForEachArc(v int32, fn func(int32))
	Graph() *Graph
}

// GraphSnapshot is one pinned generation.
type GraphSnapshot struct{ g *Graph }

func (s *GraphSnapshot) NumNodes() int                      { return s.g.N }
func (s *GraphSnapshot) Arcs(v int32) []int32               { return nil }
func (s *GraphSnapshot) ForEachArc(v int32, fn func(int32)) {}
func (s *GraphSnapshot) Graph() *Graph                      { return s.g }

// MutableGraph swaps snapshots under concurrent weight updates.
type MutableGraph struct{ cur *GraphSnapshot }

func (m *MutableGraph) NumNodes() int                      { return m.cur.NumNodes() }
func (m *MutableGraph) Arcs(v int32) []int32               { return m.cur.Arcs(v) }
func (m *MutableGraph) ForEachArc(v int32, fn func(int32)) { m.cur.ForEachArc(v, fn) }
func (m *MutableGraph) Graph() *Graph                      { return m.cur.Graph() }

// Snapshot, Generation and UpdateWeights are the snapshot-discipline entry
// points; calling them on the mutable value is the point.
func (m *MutableGraph) Snapshot() *GraphSnapshot { return m.cur }
func (m *MutableGraph) Generation() uint64       { return 0 }
func (m *MutableGraph) UpdateWeights(gen uint64) {}

// Snapshotter pins mutable accessors.
type Snapshotter interface{ Snapshot() *GraphSnapshot }

// SnapshotOf returns a pinned view of acc.
func SnapshotOf(acc Accessor) Accessor {
	if s, ok := acc.(Snapshotter); ok {
		return s.Snapshot()
	}
	return acc
}
