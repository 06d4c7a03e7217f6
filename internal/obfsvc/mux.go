package obfsvc

// This file is the obfuscator's side of the multiplexed transport: the
// MuxExecutor that sends obfuscated queries to a directions search server —
// or to a fleet router, which serves the identical interface — over one
// persistent framed connection, and the service's own multiplexed listener
// for clients.

import (
	"fmt"
	"net"
	"sync/atomic"

	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
)

// MuxExecutor sends queries over a multiplexed connection. It implements
// BatchExecutor: whole obfuscation plans travel as one streaming BatchQuery,
// with per-query replies arriving as they complete. Any number of goroutines
// may execute queries concurrently on one connection.
type MuxExecutor struct {
	conn    *protocol.MuxClient
	batchID atomic.Uint64
}

// NewMuxExecutor wraps an established multiplexed connection.
func NewMuxExecutor(conn *protocol.MuxClient) *MuxExecutor { return &MuxExecutor{conn: conn} }

// DialMuxExecutor connects to a server (or fleet router) at addr over the
// multiplexed transport.
func DialMuxExecutor(addr string) (*MuxExecutor, error) {
	conn, err := protocol.DialMux(addr, protocol.Hello{Node: addr, Role: "obfuscator"})
	if err != nil {
		return nil, err
	}
	return NewMuxExecutor(conn), nil
}

// Close tears down the connection.
func (e *MuxExecutor) Close() error { return e.conn.Close() }

// Execute implements QueryExecutor.
func (e *MuxExecutor) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	res, err := e.conn.Do(q)
	if err != nil {
		return protocol.ServerReply{}, fmt.Errorf("obfsvc: %w", err)
	}
	switch m := res.(type) {
	case protocol.ServerReply:
		return m, nil
	default:
		return protocol.ServerReply{}, fmt.Errorf("obfsvc: unexpected server reply type %T", res)
	}
}

// ExecuteBatch implements BatchExecutor over one streaming batch exchange. A
// transport or whole-batch failure is reported in every error slot.
func (e *MuxExecutor) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	replies := make([]protocol.ServerReply, len(qs))
	errs := make([]error, len(qs))
	br, err := e.conn.DoBatch(protocol.BatchQuery{BatchID: e.batchID.Add(1), Queries: qs})
	if err != nil {
		for i := range errs {
			errs[i] = fmt.Errorf("obfsvc: %w", err)
		}
		return replies, errs
	}
	if len(br.Replies) != len(qs) || len(br.Errors) != len(qs) {
		err := fmt.Errorf("obfsvc: batch reply has %d replies / %d errors for %d queries", len(br.Replies), len(br.Errors), len(qs))
		for i := range errs {
			errs[i] = err
		}
		return replies, errs
	}
	copy(replies, br.Replies)
	for i, msg := range br.Errors {
		if msg != "" {
			errs[i] = fmt.Errorf("obfsvc: server error: %s", msg)
		}
	}
	return replies, errs
}

// MuxHandler returns the service's handler for the multiplexed transport: it
// answers ClientRequest messages. Each request is submitted through the
// batching path and answered when its batch completes; many requests share
// one connection. The obfuscator has no cheaper degraded answer to shed to —
// load shedding happens downstream at the server/router — so ReqInfo is
// ignored.
func (s *Service) MuxHandler() protocol.MuxHandler {
	return protocol.MuxHandlerFunc(func(msg any, _ protocol.ReqInfo) (any, error) {
		req, ok := msg.(protocol.ClientRequest)
		if !ok {
			return nil, fmt.Errorf("obfsvc: unexpected message type %T", msg)
		}
		res := <-s.Submit(obfuscate.Request{
			User:   obfuscate.UserID(req.User),
			Source: req.Source,
			Dest:   req.Dest,
			FS:     req.FS,
			FT:     req.FT,
		})
		reply := protocol.ClientReply{RequestID: req.RequestID, Found: res.Found}
		if res.Err != nil {
			reply.Error = res.Err.Error()
		}
		if res.Found {
			reply.Path = res.Path.Nodes
			reply.Cost = res.Path.Cost
		}
		return reply, nil
	})
}

// ServeMux accepts multiplexed client connections on ln until the listener
// closes. The channel between clients and the obfuscator is assumed secure
// (e.g. TLS in a real deployment); securing it is outside the paper's scope
// and ours.
func (s *Service) ServeMux(ln net.Listener, cfg protocol.MuxServerConfig) error {
	if cfg.Hello == nil {
		cfg.Hello = func() protocol.Hello { return protocol.Hello{Role: "obfuscator"} }
	}
	return protocol.ServeMux(ln, s.MuxHandler(), cfg)
}
