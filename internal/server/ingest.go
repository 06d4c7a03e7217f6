package server

import (
	"fmt"

	"opaque/internal/traffic"
)

// NewIngestor builds a streaming traffic ingestion pipeline in front of this
// server: raw ArcWeightChange events are validated at the boundary, coalesced
// last-write-wins into batches (cfg.MaxBatch / cfg.MaxDelay), applied through
// ApplyWeights — one snapshot swap per batch, not per event — and followed up
// by the pipelined re-customization worker, which folds however many batches
// land during one run into a single pending refresh from the freshest
// snapshot. The caller owns the returned Ingestor and must Close it; the
// server keeps a reference only to publish its counters (ingest_events,
// ingest_batches, ingest_coalesce_ratio, ingest_queue_depth).
//
// cfg.Topology defaults to the server's startup graph, so unknown-arc events
// are rejected per event at the boundary instead of failing whole batches at
// apply time. Like UpdateWeights, ingestion requires the in-memory backend;
// a witness-pruned overlay is refused too, because a sustained update stream
// would permanently park it on the SSMD fallback.
func (s *Server) NewIngestor(cfg traffic.Config) (*traffic.Ingestor, error) {
	if s.mutable == nil {
		return nil, fmt.Errorf("server: streaming ingestion requires the in-memory backend (paged deployments serve a frozen page layout)")
	}
	var refresher traffic.Refresher
	if st := s.live.Load(); st.overlay != nil {
		if !st.overlay.Customizable() {
			return nil, fmt.Errorf("server: streaming ingestion needs a customizable overlay (this one is witness-pruned and cannot absorb weight updates)")
		}
		refresher = s
	}
	if cfg.Topology == nil {
		cfg.Topology = s.graph
	}
	in, err := traffic.NewIngestor(s, refresher, cfg)
	if err != nil {
		return nil, err
	}
	s.ingest.Store(in)
	return in, nil
}

// IngestStats returns the counters of the most recently created ingestion
// pipeline, or zeroes when none exists.
func (s *Server) IngestStats() traffic.Stats {
	if in := s.ingest.Load(); in != nil {
		return in.Stats()
	}
	return traffic.Stats{}
}

// OverlayFresh reports whether the installed overlay state matches the
// current graph on both axes (content checksum and engine generation).
// Servers without an overlay are trivially fresh. Experiments use it to
// measure the stale-query window under a sustained update stream.
func (s *Server) OverlayFresh() bool {
	st := s.live.Load()
	return st.overlay == nil || (!s.overlayStale(st) && !s.engineStale(st))
}
