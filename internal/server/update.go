package server

import (
	"fmt"
	"time"

	"opaque/internal/ch"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// This file is the server's live weight update path. An update (traffic
// refresh, road closure, reopening) flows through three layers, each with
// its own consistency mechanism:
//
//  1. storage.MutableGraph applies the changes copy-on-write and swaps the
//     current snapshot atomically — queries in flight keep their pinned
//     pre-update snapshot, queries admitted afterwards pin the new one, and
//     no query ever sees a mix.
//  2. The SSMD tree cache invalidates itself: cached spanning trees are
//     keyed by accessor generation, which the swap bumped.
//  3. The CH overlay cannot serve the new metric until its weight layer is
//     re-customized. Until then the staleness check in evaluateLive (and
//     the engines' own checksum/generation verification, for races that
//     slip past it) diverts overlay traffic to the SSMD fallback — counted
//     in overlay_stale_queries — while kickRecustomize refreshes the weight
//     layer in the background and swaps the fresh overlay state in
//     atomically. The refresh is arc-level (ch.RecustomizeIncremental):
//     milliseconds for a traffic batch (experiment E17), against ~10 s for
//     a re-contraction of the measured 50k-node network (experiment E16).

// UpdateWeights applies live weight changes to the served road network and
// returns the new data generation. Queries already admitted complete against
// the pre-update snapshot; queries admitted after the call see the new
// weights — via the SSMD processor immediately, and via the CH overlay once
// the background re-customization (kicked here) has swapped the refreshed
// overlay in. Use RecustomizeNow to wait for that swap deterministically.
//
// Updates require the in-memory backend: paged deployments serve a frozen
// page layout and reject updates.
func (s *Server) UpdateWeights(changes []roadnet.ArcWeightChange) (uint64, error) {
	gen, err := s.applyWeights(changes)
	if err != nil {
		return gen, err
	}
	s.kickRecustomize()
	return gen, nil
}

// ApplyWeights is UpdateWeights without the background re-customization
// kick: the snapshot swaps, caches invalidate, stale overlay routing kicks
// in — but catching the overlay up is the caller's job. The streaming
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
// RecustomizeNow clears the set once the installed overlay has caught up
// with the current graph.
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

// clearPendingCells empties the dirty-layer set; called when the installed
// overlay matches the current graph again.
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

// kickRecustomize starts one background re-customization when the installed
// overlay state is stale and able to be refreshed: a content-stale overlay
// needs the customization pass (customizable overlays only), while a
// generation-only staleness — an update that left the content checksum
// unchanged, like a no-op change or an A→B→A revert — only needs the
// engines rebound to the current generation, which works on any overlay. At
// most one goroutine runs at a time; redundant kicks (every stale-routed
// query issues one) are dropped. A content-stale witness-pruned overlay
// cannot be refreshed — the server keeps serving through the SSMD fallback,
// which overlay_stale_queries makes visible.
func (s *Server) kickRecustomize() {
	st := s.live.Load()
	if st.overlay == nil {
		return
	}
	if contentStale := s.overlayStale(st); contentStale && !st.overlay.Customizable() {
		return // permanent fallback; RecustomizeNow reports it to direct callers
	} else if !contentStale && !s.engineStale(st) {
		return // fresh on both axes; nothing to do
	}
	if !s.recustomizing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		// Failures are counted (recustomize_failures) rather than returned —
		// there is no caller — and the server keeps answering through the
		// SSMD fallback, which stays correct on the current snapshot.
		err := s.RecustomizeNow()
		if s.afterRecustomize != nil {
			s.afterRecustomize()
		}
		s.recustomizing.Store(false)
		// An update that landed after RecustomizeNow's last freshness check
		// found the flag still set and had its own kick dropped; with no
		// query traffic to issue another, nobody would catch the overlay up.
		// Re-check now that the flag is clear. (Not after a failure: the
		// same refresh would fail again, in a loop.)
		if err == nil {
			s.kickRecustomize()
		}
	}()
}

// RecustomizeNow synchronously refreshes the CH overlay's weight layer until
// it matches the current graph, swapping each refreshed overlay state in
// atomically, and returns when the installed overlay is fresh (or the server
// has nothing to refresh: no overlay, or an already fresh one). Updates that
// land mid-refresh are absorbed by another round of the loop. It is safe to
// call concurrently with queries, updates and the background refresh; runs
// serialise internally.
func (s *Server) RecustomizeNow() error {
	s.recustomizeMu.Lock()
	defer s.recustomizeMu.Unlock()
	for {
		st := s.live.Load()
		if st.overlay == nil {
			return nil
		}
		// Pin one snapshot for the whole round: the overlay is customized
		// for exactly this graph and bound to exactly this generation.
		snap := s.mutable.Snapshot()
		g := snap.Graph()
		if st.overlay.Checksum() == ch.GraphChecksum(g) {
			// Content already matches — the generation may still trail it
			// (a no-op update, or a revert that restored the exact weights
			// before this run got to them). The overlay is valid for this
			// generation by construction, so rebinding the engines is all
			// the refresh needed; without it the processors' Generational
			// check would refuse them forever.
			if gen := storage.GenerationOf(snap); st.engine.Generation() != gen {
				st.engine.BindGeneration(gen)
				st.mtm.BindGeneration(gen)
			}
			s.clearPendingCells()
			return nil
		}
		if !st.overlay.Customizable() {
			s.mRecustFail.Add(1)
			return fmt.Errorf("server: overlay is witness-pruned and cannot absorb weight updates; queries fall back to SSMD (rebuild with a customizable overlay to restore CH serving)")
		}
		start := time.Now()
		// Arc-level: the overlay diffs the pinned snapshot against the road
		// costs it was customized for and re-derives only the arcs the
		// changes move. Every overlay this server installs carries those
		// base costs (server.New's Matches records them for a loaded one).
		fresh, stats, err := st.overlay.RecustomizeIncremental(g)
		if err != nil {
			s.mRecustFail.Add(1)
			return fmt.Errorf("server: re-customizing overlay: %w", err)
		}
		s.live.Store(s.newEvalState(s.acc, fresh, storage.GenerationOf(snap), s.cache))
		s.mRecustomize.Add(1)
		s.mCellsRecust.Add(int64(len(stats.Recustomized)))
		s.metrics.SetGauge("recustomize_last_ms", float64(time.Since(start).Microseconds())/1000)
		s.metrics.SetGauge("recustomize_arcs_last", float64(stats.ArcsRederived))
		// Loop: another update may have landed while this round customized.
	}
}
