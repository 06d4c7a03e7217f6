package search

import (
	"errors"

	"opaque/internal/storage"
)

// Typed error conditions of the query-evaluation contract. Callers branch on
// these with errors.Is; the wrapped messages carry the specifics.

// ErrEmptyQuery marks an obfuscated query with an empty source or
// destination set. Q(S, T) is defined over non-empty endpoint sets — an
// empty side would make the candidate table vacuous and leak that the query
// carried no real endpoint — so every evaluation surface (Processor.Evaluate
// / EvaluateDistances on every strategy, the table engines' EvaluateTable /
// EvaluateDistances, ch.MTM's direct table entry points, and the SSMD
// primitives' empty-destination case) rejects it with an error wrapping this
// sentinel. No surface returns a silent empty table.
var ErrEmptyQuery = errors.New("search: query has an empty source or destination set")

// ErrStaleEngine marks an evaluation refused because the engine's
// preprocessed index no longer matches the accessor's current data — the
// graph's weights (or the accessor's generation) moved past the snapshot the
// index was built for. Serving would return distances from a dead graph;
// callers fall back to an index-free strategy and refresh the engine (the
// server re-customizes its CH overlay in the background).
var ErrStaleEngine = errors.New("search: engine index is stale for the accessor's current data")

// Generational is the validity contract for plug-in table engines backed by
// a preprocessed index (TableEngine): Generation returns the
// accessor data generation (storage.Versioned) the index was built or last
// refreshed under. The processor refuses to evaluate on an engine whose
// generation trails a versioned accessor's current one — the index is stale
// by definition, whatever its checksums say — returning an error wrapping
// ErrStaleEngine. Engines on immutable accessors may simply return 0, the
// immutable generation.
type Generational interface {
	Generation() uint64
}

// engineCurrent reports whether engine (any value; typically a TableEngine)
// is current for acc under the Generational contract.
// Engines that do not implement Generational are treated as always current,
// as are accessors that are not Versioned.
func engineCurrent(engine any, acc storage.Accessor) bool {
	g, ok := engine.(Generational)
	if !ok {
		return true
	}
	v, ok := acc.(storage.Versioned)
	if !ok {
		return true
	}
	return g.Generation() == v.Generation()
}
