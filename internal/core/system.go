// Package core composes the three OPAQUE roles — clients, the trusted
// obfuscator, and the directions search server — into a runnable system
// (Figure 5 of the paper): the in-process deployment used by examples, tests
// and experiments.
package core

import (
	"fmt"

	"opaque/internal/client"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/server"
)

// Config assembles the configuration of every component of an in-process
// OPAQUE system.
type Config struct {
	Server     server.Config
	Obfuscator obfsvc.Config
}

// DefaultConfig returns a shared-mode OPAQUE system over an in-memory server.
func DefaultConfig() Config {
	cfg := Config{
		Server:     server.DefaultConfig(),
		Obfuscator: obfsvc.DefaultConfig(),
	}
	// In-process experiments submit synchronous batches; no need for a
	// wall-clock batching window by default.
	cfg.Obfuscator.BatchWindow = 0
	return cfg
}

// System is a fully wired in-process OPAQUE deployment.
type System struct {
	Graph      *roadnet.Graph
	Server     *server.Server
	Obfuscator *obfsvc.Service
	cfg        Config
}

// NewSystem wires a system over graph g. The obfuscator uses the same graph
// as its simple road map; a deployment with a coarser obfuscator map can use
// NewSystemWithMaps.
func NewSystem(g *roadnet.Graph, cfg Config) (*System, error) {
	return NewSystemWithMaps(g, g, cfg)
}

// NewSystemWithMaps wires a system where the server and the obfuscator hold
// different road maps (the paper notes the obfuscator's map is a simple one
// without live traffic).
func NewSystemWithMaps(serverMap, obfuscatorMap *roadnet.Graph, cfg Config) (*System, error) {
	srv, err := server.New(serverMap, cfg.Server)
	if err != nil {
		return nil, fmt.Errorf("core: building server: %w", err)
	}
	svc, err := obfsvc.New(obfuscatorMap, serverExecutor{srv}, cfg.Obfuscator)
	if err != nil {
		return nil, fmt.Errorf("core: building obfuscator service: %w", err)
	}
	return &System{Graph: serverMap, Server: srv, Obfuscator: svc, cfg: cfg}, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(g *roadnet.Graph, cfg Config) *System {
	s, err := NewSystem(g, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// serverExecutor adapts the in-process server to obfsvc.BatchExecutor, so the
// obfuscator hands whole obfuscation plans to the server's batch engine
// (shared SSMD trees, worker-pool evaluation) instead of one query at a time.
type serverExecutor struct{ srv *server.Server }

// Execute implements obfsvc.QueryExecutor.
func (e serverExecutor) Execute(q protocol.ServerQuery) (protocol.ServerReply, error) {
	return e.srv.Evaluate(q)
}

// ExecuteBatch implements obfsvc.BatchExecutor.
func (e serverExecutor) ExecuteBatch(qs []protocol.ServerQuery) ([]protocol.ServerReply, []error) {
	results := e.srv.EvaluateBatch(qs)
	replies := make([]protocol.ServerReply, len(results))
	errs := make([]error, len(results))
	for i, r := range results {
		replies[i] = r.Reply
		errs[i] = r.Err
	}
	return replies, errs
}

// NewClient returns a client for the given user wired to the system's
// obfuscator.
func (s *System) NewClient(user string, opts ...client.Option) (*client.Client, error) {
	return client.NewLocal(user, s.Obfuscator, opts...)
}

// DirectClient returns a no-privacy client that queries the server directly.
func (s *System) DirectClient() *client.DirectClient {
	return client.MustNewDirect(obfsvc.ExecutorFunc(s.Server.Evaluate))
}

// ProcessBatch runs a batch of requests through the full OPAQUE pipeline
// (obfuscate → evaluate → filter) and returns one result per request.
func (s *System) ProcessBatch(batch []obfuscate.Request) ([]obfsvc.ClientResult, error) {
	return s.Obfuscator.ProcessBatch(batch)
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }
