// Package snapshotpin exercises the snapshotpin analyzer: storage.Accessor
// reads on a *storage.MutableGraph must go through a pinned snapshot.
package snapshotpin

import "opaque/internal/storage"

func bad(m *storage.MutableGraph) int {
	n := m.NumNodes() // want `\[snapshotpin\] NumNodes called directly on \*storage\.MutableGraph`
	g := m.Graph()    // want `\[snapshotpin\] Graph called directly on \*storage\.MutableGraph`
	_ = g
	m.ForEachArc(0, func(int32) {}) // want `\[snapshotpin\] ForEachArc called directly on \*storage\.MutableGraph`
	return n
}

func good(m *storage.MutableGraph) int {
	snap := storage.SnapshotOf(m)
	n := snap.NumNodes()
	pinned := m.Snapshot() // Snapshot is the pin, not a read: allowed.
	_ = pinned.Graph()
	_ = m.Generation() // generation bookkeeping, not an accessor read
	m.UpdateWeights(1) // the write path stays on the mutable value
	return n
}

func goodViaAccessor(acc storage.Accessor) int {
	// Reads through the Accessor interface are fine: the analyzer targets
	// the concrete mutable type, where the generation can move underfoot.
	return acc.NumNodes()
}

func waived(m *storage.MutableGraph) int {
	// A justified direct read stays silent under a waiver.
	return m.NumNodes() //opaque:allow(snapshotpin) single monotone read; generation skew is harmless here
}
