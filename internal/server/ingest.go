package server

import (
	"fmt"

	"opaque/internal/storage"
	"opaque/internal/traffic"
)

// NewIngestor builds a streaming traffic ingestion pipeline in front of this
// server: raw ArcWeightChange events are validated at the boundary, coalesced
// last-write-wins into batches (cfg.MaxBatch / cfg.MaxDelay), applied through
// ApplyWeights — one snapshot swap per batch, not per event — and published
// by the pipelined refresh worker through RecustomizeNow, which folds however
// many batches land during one run into a single publication of the freshest
// snapshot. The caller owns the returned Ingestor and must Close it; the
// server keeps a reference only to publish its counters (ingest_events,
// ingest_batches, ingest_coalesce_ratio, ingest_queue_depth).
//
// cfg.Topology defaults to the server's startup graph, so unknown-arc events
// are rejected per event at the boundary instead of failing whole batches at
// apply time. Like UpdateWeights, ingestion requires the in-memory backend;
// the refusal surfaces here, at construction, rather than as a failed apply
// per batch.
func (s *Server) NewIngestor(cfg traffic.Config) (*traffic.Ingestor, error) {
	if s.mutable == nil {
		return nil, fmt.Errorf("server: streaming ingestion requires the in-memory backend (paged deployments serve a frozen page layout)")
	}
	if cfg.Topology == nil {
		cfg.Topology = s.graph
	}
	in, err := traffic.NewIngestor(s, s, cfg)
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

// OverlayFresh reports whether the published epoch is the applied one:
// its generation equals the graph's, so every applied weight update is
// visible to queries. Experiments use it to measure the visibility lag under
// a sustained update stream.
func (s *Server) OverlayFresh() bool {
	return s.live.Load().ident.generation == storage.GenerationOf(s.acc)
}
