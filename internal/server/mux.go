package server

// This file is the server's face on the multiplexed transport: the handler
// that answers framed queries, batches (streamed per-query) and weight
// updates, the Hello the server greets connecting peers with, and the
// admission-control degradation — a request arriving above the connection's
// ShedAt watermark is rewritten to DistanceOnly before evaluation, so an
// overloaded shard answers the cost table from the many-to-many engine
// instead of queueing full path unpacking.

import (
	"fmt"
	"net"

	"opaque/internal/protocol"
)

// HelloInfo returns the Hello this server greets multiplexed peers with: the
// published epoch's metric identity (generation + weight-content checksum),
// and partition cell count. Re-read per connection so a fleet
// router admitting a shard sees the identity it currently serves under.
func (s *Server) HelloInfo() protocol.Hello {
	st := s.live.Load()
	h := protocol.Hello{
		Role:       "server",
		Generation: st.ident.generation,
		ContentSum: st.ident.contentSum,
	}
	if st.overlay != nil {
		h.Cells = st.overlay.PartitionCells()
	}
	return h
}

// serverMuxHandler adapts the server to the multiplexed transport. It
// implements both protocol.MuxHandler (unary messages) and
// protocol.MuxBatchStreamer (batches answered one frame per query).
type serverMuxHandler struct {
	s *Server
}

// HandleMux implements protocol.MuxHandler. Batches never arrive here: the
// transport hands them to HandleMuxBatch.
func (h serverMuxHandler) HandleMux(msg any, info protocol.ReqInfo) (any, error) {
	switch m := msg.(type) {
	case protocol.ServerQuery:
		if info.Shed {
			m.DistanceOnly = true
		}
		return h.s.Evaluate(m)
	case protocol.WeightUpdate:
		return h.s.applyWeightUpdate(m)
	default:
		return nil, fmt.Errorf("server: unexpected message type %T", msg)
	}
}

// HandleMuxBatch implements protocol.MuxBatchStreamer: every query of the
// batch streams out as its own reply frame the moment it completes.
func (h serverMuxHandler) HandleMuxBatch(b protocol.BatchQuery, info protocol.ReqInfo, emit func(protocol.BatchItem)) error {
	b = shedBatch(b, info.Shed)
	h.s.EvaluateBatchStream(b.Queries, func(i int, r BatchResult) {
		item := protocol.BatchItem{BatchID: b.BatchID, Index: i, Reply: r.Reply}
		if r.Err != nil {
			item.Error = r.Err.Error()
		}
		emit(item)
	})
	return nil
}

// shedBatch rewrites a batch for degraded evaluation when the connection is
// above its shedding watermark. The queries slice is copied — the original
// message may alias transport buffers shared with other goroutines.
func shedBatch(b protocol.BatchQuery, shed bool) protocol.BatchQuery {
	if !shed {
		return b
	}
	queries := make([]protocol.ServerQuery, len(b.Queries))
	copy(queries, b.Queries)
	for i := range queries {
		queries[i].DistanceOnly = true
	}
	b.Queries = queries
	return b
}

// MuxHandler returns the server's handler for the multiplexed transport; its
// dynamic type also implements protocol.MuxBatchStreamer, so batches stream.
func (s *Server) MuxHandler() protocol.MuxHandler {
	return serverMuxHandler{s: s}
}

// ServeMux accepts multiplexed connections on ln until the listener closes.
// cfg's Hello defaults to the server's own HelloInfo.
func (s *Server) ServeMux(ln net.Listener, cfg protocol.MuxServerConfig) error {
	if cfg.Hello == nil {
		cfg.Hello = s.HelloInfo
	}
	return protocol.ServeMux(ln, s.MuxHandler(), cfg)
}

// ServeMuxConn serves one established multiplexed connection — the
// in-process harness (fleettest) drives shards over net.Pipe through this.
func (s *Server) ServeMuxConn(conn net.Conn, cfg protocol.MuxServerConfig) error {
	if cfg.Hello == nil {
		cfg.Hello = s.HelloInfo
	}
	return protocol.ServeMuxConn(conn, s.MuxHandler(), cfg)
}
