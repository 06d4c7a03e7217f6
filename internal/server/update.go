package server

import (
	"fmt"
	"time"

	"opaque/internal/roadnet"
)

// This file is the server's live weight update path. An update (traffic
// refresh, road closure, reopening) becomes visible as one published epoch,
// in two steps:
//
//  1. applyWeights hands the changes to storage.MutableGraph, which derives
//     the next weight snapshot copy-on-write and swaps it in atomically. No
//     query reads it yet: every query keeps evaluating on the published
//     epoch, whose snapshot, overlay and engine all describe one metric.
//  2. RecustomizeNow publishes the snapshot: it re-customizes the CH
//     overlay's weight layer for it when its content moved — arc-level
//     (ch.RecustomizeIncremental), milliseconds for a traffic batch
//     (BenchmarkRecustomizeIncremental, beside the full pass of
//     BenchmarkRecustomizeFull) — and swaps one evalState holding the
//     snapshot, the overlay, the engine bound to it and its identity in
//     behind the live pointer.
//
// A query loads that pointer once, so its answer is exact on the snapshot its
// reply's (Generation, ContentSum) names, whichever route served it. The SSMD
// tree cache keys trees by generation, so a new epoch never reads a tree
// grown on an older one. Until RecustomizeNow returns, queries are answered on
// the previous epoch; the graph_generation − overlay_generation gauges count
// that visibility lag in generations.

// UpdateWeights applies live weight changes to the served road network,
// publishes them and returns the new data generation: when it returns, every
// query admitted afterwards — overlay and SSMD routes alike — sees the new
// weights. Queries already admitted complete on the epoch they loaded.
func (s *Server) UpdateWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	gen, err := s.applyWeights(changes)
	if err != nil {
		return gen, err
	}
	return gen, s.RecustomizeNow()
}

// applyWeights is UpdateWeights without the publication: the snapshot swaps
// and the graph generation moves, but queries keep being answered on the
// published epoch until RecustomizeNow publishes the new one.
func (s *Server) applyWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	gen, err := s.weights.UpdateWeights(changes)
	if err != nil {
		return gen, fmt.Errorf("server: %w", err)
	}
	s.mWeightUpd.Add(1)
	return gen, nil
}

// RecustomizeNow publishes the current weight snapshot as the live epoch and
// returns once the published generation equals the applied one — at once
// when it already does. Each round pins the current snapshot, re-customizes
// the overlay's weight layer for it only if the content checksum moved (a
// no-op or reverting update reuses the overlay as it is), and stores the new
// epoch; updates that land meanwhile are absorbed by another round. On a
// server without an overlay a round only publishes the snapshot. It is safe to
// call concurrently with queries and updates; runs serialise internally.
func (s *Server) RecustomizeNow() error {
	s.recustomizeMu.Lock()
	defer s.recustomizeMu.Unlock()
	for {
		snap := s.weights.Snapshot()
		st := s.live.Load()
		if st.ident.generation == snap.Generation() {
			return nil
		}
		overlay := st.overlay
		if g := snap.Graph(); overlay != nil && g.ContentChecksum() != st.ident.contentSum {
			start := time.Now()
			// Arc-level: the overlay diffs the pinned snapshot against the
			// road costs it was customized for and re-derives only the arcs
			// the changes move. Every overlay this server installs carries
			// those base costs (server.New's Matches records them for a
			// loaded one).
			fresh, stats, err := overlay.RecustomizeIncremental(g)
			if err != nil {
				s.mRecustFail.Add(1)
				return fmt.Errorf("server: re-customizing overlay: %w", err)
			}
			overlay = fresh
			s.mRecustomize.Add(1)
			s.metrics.SetGauge("recustomize_last_ms", float64(time.Since(start).Microseconds())/1000)
			s.metrics.SetGauge("recustomize_arcs_last", float64(stats.ArcsRederived))
		}
		s.live.Store(s.newEvalState(snap, overlay))
	}
}

// OverlayFresh reports whether the published epoch is the applied one:
// its generation equals the graph's, so every applied weight update is
// visible to queries. Tests use it to watch the visibility lag under a
// sustained update stream.
func (s *Server) OverlayFresh() bool {
	return s.live.Load().ident.generation == s.weights.Generation()
}
