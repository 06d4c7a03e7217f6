package fleet

// The router's serving side: obfuscators connect to the router over the same
// multiplexed transport the router uses toward its shards, so a fleet is a
// drop-in replacement for a single opaque-server address. Shedding composes:
// a request arriving above the router connection's ShedAt watermark is
// rewritten to DistanceOnly before placement, so the shard answers the
// degraded distance-only table.

import (
	"fmt"
	"net"
	"time"

	"opaque/internal/protocol"
)

// reqDeadline resolves the deadline one incoming request runs under: the
// caller's own deadline when it sent one, otherwise Config.DefaultDeadline
// from now (zero stays zero — unbounded).
func (r *Router) reqDeadline(info protocol.ReqInfo) time.Time {
	if !info.Deadline.IsZero() || r.cfg.DefaultDeadline <= 0 {
		return info.Deadline
	}
	return time.Now().Add(r.cfg.DefaultDeadline)
}

// HelloInfo returns the Hello the router greets connecting obfuscators with.
// The fleet has no single generation — shards converge through broadcast and
// replay — so the identity fields stay zero and per-reply ContentSums carry
// the metric identity instead.
func (r *Router) HelloInfo() protocol.Hello {
	return protocol.Hello{Role: "router"}
}

// routerMuxHandler adapts the router to the serving side of the multiplexed
// transport; it implements protocol.MuxHandler and protocol.MuxBatchStreamer.
type routerMuxHandler struct {
	r *Router
}

// HandleMux implements protocol.MuxHandler. The request deadline (if any)
// propagates to the shards: shard requests carry it and retry backoff never
// sleeps past it. Batches never arrive here: the
// transport hands them to HandleMuxBatch.
func (h routerMuxHandler) HandleMux(msg any, info protocol.ReqInfo) (any, error) {
	switch m := msg.(type) {
	case protocol.ServerQuery:
		if info.Shed {
			m.DistanceOnly = true
		}
		// The shard's reply goes back as it arrived: the transport writes a
		// held reply's bytes verbatim.
		return h.r.ExecuteDeadline(m, h.r.reqDeadline(info))
	case protocol.WeightUpdate:
		if err := h.r.UpdateWeights(m.Changes); err != nil {
			return nil, err
		}
		// The fleet-wide identity is per-shard; the ack confirms receipt and
		// fold into the replay state, not one global generation.
		return protocol.WeightUpdateAck{UpdateID: m.UpdateID}, nil
	default:
		return nil, fmt.Errorf("fleet: unexpected message type %T", msg)
	}
}

// HandleMuxBatch implements protocol.MuxBatchStreamer: the batch is answered
// by ExecuteBatchDeadline, and each shard reply streams back in its item as
// the bytes it arrived as.
func (h routerMuxHandler) HandleMuxBatch(b protocol.BatchQuery, info protocol.ReqInfo, emit func(protocol.BatchItem)) error {
	qs := b.Queries
	if info.Shed {
		qs = make([]protocol.ServerQuery, len(b.Queries))
		copy(qs, b.Queries)
		for i := range qs {
			qs[i].DistanceOnly = true
		}
	}
	replies, errs := h.r.ExecuteBatchDeadline(qs, h.r.reqDeadline(info))
	for i := range replies {
		item := protocol.BatchItem{BatchID: b.BatchID, Index: i, Reply: replies[i]}
		if errs[i] != nil {
			item.Error = errs[i].Error()
		}
		emit(item)
	}
	return nil
}

// MuxHandler returns the router's multiplexed-transport handler; its dynamic
// type implements protocol.MuxBatchStreamer, so batch replies stream.
func (r *Router) MuxHandler() protocol.MuxHandler {
	return routerMuxHandler{r: r}
}

// ServeMux accepts obfuscator connections on ln until the listener closes.
func (r *Router) ServeMux(ln net.Listener, cfg protocol.MuxServerConfig) error {
	if cfg.Hello == nil {
		cfg.Hello = r.HelloInfo
	}
	return protocol.ServeMux(ln, r.MuxHandler(), cfg)
}

// ServeMuxConn serves one established connection (in-process harnesses drive
// the router over net.Pipe through this).
func (r *Router) ServeMuxConn(conn net.Conn, cfg protocol.MuxServerConfig) error {
	if cfg.Hello == nil {
		cfg.Hello = r.HelloInfo
	}
	return protocol.ServeMuxConn(conn, r.MuxHandler(), cfg)
}
