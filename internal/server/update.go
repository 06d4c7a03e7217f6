package server

import (
	"fmt"
	"time"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
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
//
// Updates require the in-memory backend: paged deployments serve a frozen
// page layout and reject updates.
func (s *Server) UpdateWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	gen, err := s.applyWeights(changes)
	if err != nil {
		return gen, err
	}
	return gen, s.RecustomizeNow()
}

// ApplyWeights is UpdateWeights without the publication: the snapshot swaps
// and the graph generation moves, but queries keep being answered on the
// published epoch until RecustomizeNow publishes the new one. The streaming
// ingestion pipeline (Server.NewIngestor) uses it as its batch sink, because
// its own pipelined refresh worker drives RecustomizeNow with folding: one
// pending run however many batches land while a run is in flight.
func (s *Server) ApplyWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	return s.applyWeights(changes)
}

// applyWeights is the shared swap path of UpdateWeights and ApplyWeights.
func (s *Server) applyWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	if s.mutable == nil {
		return 0, fmt.Errorf("server: live weight updates require the in-memory backend (paged deployments serve a frozen page layout)")
	}
	gen, err := s.mutable.UpdateWeights(changes)
	if err != nil {
		return gen, fmt.Errorf("server: %w", err)
	}
	s.mWeightUpd.Add(1)
	s.notePendingCells(changes)
	return gen, nil
}

// notePendingCells records which overlay weight layers the applied changes
// dirtied, feeding the recustomize_pending_cells gauge: the layers the next
// re-customization starts in. An arc interior to one cell dirties that cell;
// a boundary or cell-crossing arc — and any change on an unpartitioned
// overlay — dirties the top layer, tracked as the pseudo-cell -1.
// RecustomizeNow clears the set once the published epoch has caught up with
// the current graph.
func (s *Server) notePendingCells(changes []roadnet.ArcWeightChange) {
	st := s.live.Load()
	if st.overlay == nil {
		return
	}
	cells := st.overlay.PartitionCells()
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	if s.pendingCells == nil {
		s.pendingCells = make(map[int]struct{})
	}
	for _, c := range changes {
		key := -1
		if cells > 0 {
			cf, bf := st.overlay.CellOfNode(c.From)
			ct, bt := st.overlay.CellOfNode(c.To)
			if !bf && !bt && cf == ct {
				key = cf
			}
		}
		s.pendingCells[key] = struct{}{}
	}
}

// clearPendingCells empties the dirty-layer set; called when the published
// epoch matches the current graph again.
func (s *Server) clearPendingCells() {
	s.pendingMu.Lock()
	s.pendingCells = nil
	s.pendingMu.Unlock()
}

// pendingCellCount returns the number of distinct overlay layers dirtied by
// applied-but-not-yet-recustomized weight changes.
func (s *Server) pendingCellCount() int {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	return len(s.pendingCells)
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
	if s.mutable == nil {
		return nil
	}
	s.recustomizeMu.Lock()
	defer s.recustomizeMu.Unlock()
	for {
		snap := s.mutable.Snapshot()
		st := s.live.Load()
		if st.ident.generation == storage.GenerationOf(snap) {
			s.clearPendingCells()
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
			s.mCellsRecust.Add(int64(len(stats.Recustomized)))
			s.metrics.SetGauge("recustomize_last_ms", float64(time.Since(start).Microseconds())/1000)
			s.metrics.SetGauge("recustomize_arcs_last", float64(stats.ArcsRederived))
		}
		s.live.Store(s.newEvalState(snap, overlay))
	}
}
