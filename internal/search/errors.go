package search

import "errors"

// Typed error conditions of the query-evaluation contract. Callers branch on
// these with errors.Is; the wrapped messages carry the specifics.

// ErrEmptyQuery marks an obfuscated query with an empty source or
// destination set. Q(S, T) is defined over non-empty endpoint sets — an
// empty side would make the candidate table vacuous and leak that the query
// carried no real endpoint — so every evaluation surface (Processor.Evaluate
// on every strategy, ch.MTM's EvaluateTable, EvaluateDistances and direct
// table entry points, and the SSMD primitives' empty-destination case)
// rejects it with an error wrapping this sentinel. No surface returns a
// silent empty table.
var ErrEmptyQuery = errors.New("search: query has an empty source or destination set")

// ErrStaleEngine marks an evaluation refused because the engine's
// preprocessed index no longer matches the accessor's current data — the
// graph's weights (or the accessor's generation) moved past the snapshot the
// index was built for. Serving would return distances from a dead graph, so
// the engine refuses; a server never meets it, because each published epoch
// binds its engine to that epoch's own snapshot (ch.MTM's verifyAccessor).
var ErrStaleEngine = errors.New("search: engine index is stale for the accessor's current data")
