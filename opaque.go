// Package opaque is the public façade of the OPAQUE path-privacy library, a
// from-scratch Go reproduction of "OPAQUE: Protecting Path Privacy in
// Directions Search" (Lee, Lee, Leong, Zheng — ICDE 2009).
//
// OPAQUE protects the privacy of directions searches: instead of sending the
// true path query Q(s, t) to a semi-trusted directions search server, a
// trusted obfuscator mixes the true source and destination with fake ones and
// sends an obfuscated path query Q(S, T) with s ∈ S, t ∈ T. The server
// evaluates all |S|·|T| candidate pairs efficiently with single-source
// multi-destination search, the obfuscator filters out the user's true path
// and discards the request.
//
// The façade re-exports the types a downstream application needs:
//
//   - build or load a road network (NewGraph, GenerateNetwork, ReadNetwork),
//   - assemble an in-process OPAQUE deployment (NewSystem) or the individual
//     roles (NewServer, NewObfuscatorService, NewClient),
//   - quantify privacy (BreachProbability, adversary models in
//     internal/privacy re-exported through Adversary helpers).
//
// The full machinery — search algorithms, storage simulation, baselines and
// the experiment harness — lives in the internal packages and is exercised by
// the examples, the test suite and the benchmark harness.
package opaque

import (
	"io"

	"opaque/internal/client"
	"opaque/internal/core"
	"opaque/internal/gen"
	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/privacy"
	"opaque/internal/roadnet"
	"opaque/internal/search"
	"opaque/internal/server"
	"opaque/internal/storage"
)

// Re-exported fundamental types. Aliases keep the internal packages as the
// single source of truth while giving downstream users stable names.
type (
	// Graph is a road network: a weighted graph embedded in the plane.
	Graph = roadnet.Graph
	// NodeID identifies a node (road intersection) in a Graph.
	NodeID = roadnet.NodeID
	// Path is a route through the network with its total cost.
	Path = search.Path
	// Request is a user's true path query plus its protection settings
	// ⟨u, (s,t), fS, fT⟩.
	Request = obfuscate.Request
	// ObfuscatedQuery is Q(S, T): the anonymised query the server sees.
	ObfuscatedQuery = obfuscate.ObfuscatedQuery
	// Plan is the result of obfuscating a batch of requests.
	Plan = obfuscate.Plan
	// System is a fully wired in-process OPAQUE deployment
	// (client ↔ obfuscator ↔ server).
	System = core.System
	// SystemConfig configures a System.
	SystemConfig = core.Config
	// Client submits path queries through the trusted obfuscator.
	Client = client.Client
	// ClientResult is the outcome of one path query.
	ClientResult = client.Result
	// Server is the directions search server with the obfuscated path query
	// processor.
	Server = server.Server
	// ServerConfig configures a Server.
	ServerConfig = server.Config
	// ObfuscatorService is the trusted middlebox between clients and the
	// server.
	ObfuscatorService = obfsvc.Service
	// ObfuscatorConfig configures the obfuscator service.
	ObfuscatorConfig = obfsvc.Config
	// ObfuscationConfig configures the path query obfuscator itself (mode,
	// clustering policy, fake endpoint selection).
	ObfuscationConfig = obfuscate.Config
	// EndpointSelector picks fake endpoints for obfuscation.
	EndpointSelector = obfuscate.EndpointSelector
	// QueryExecutor is the obfuscator's view of a directions search server:
	// anything that can evaluate an obfuscated path query. An in-process
	// Server's Evaluate method satisfies it via QueryExecutorFunc; a remote
	// server is reached through the networked deployment in cmd/.
	QueryExecutor = obfsvc.QueryExecutor
	// QueryExecutorFunc adapts a function to the QueryExecutor interface.
	QueryExecutorFunc = obfsvc.ExecutorFunc
	// NetworkConfig parameterises the synthetic road-network generators.
	NetworkConfig = gen.NetworkConfig
	// WorkloadConfig parameterises synthetic query workloads.
	WorkloadConfig = gen.WorkloadConfig
	// QueryPair is one (source, destination) pair of a workload.
	QueryPair = gen.QueryPair
	// Adversary models the semi-trusted server's inference power.
	Adversary = privacy.Adversary
)

// Obfuscation modes (Section III-C of the paper).
const (
	// Independent obfuscates each user's query into its own Q(Si, Ti).
	Independent = obfuscate.Independent
	// Shared merges several users' queries into one Q(S, T).
	Shared = obfuscate.Shared
)

// Network kinds understood by GenerateNetwork.
const (
	GridNetwork            = gen.Grid
	RandomGeometricNetwork = gen.RandomGeometric
	RingRadialNetwork      = gen.RingRadial
	TigerLikeNetwork       = gen.TigerLike
)

// NewGraph returns an empty mutable road network with capacity hints.
func NewGraph(nodes, edges int) *Graph { return roadnet.NewGraph(nodes, edges) }

// GenerateNetwork builds a synthetic road network; see NetworkConfig for the
// available topologies.
func GenerateNetwork(cfg NetworkConfig) (*Graph, error) { return gen.Generate(cfg) }

// DefaultNetworkConfig returns a mid-sized grid network configuration.
func DefaultNetworkConfig() NetworkConfig { return gen.DefaultNetworkConfig() }

// GenerateWorkload draws query pairs on g.
func GenerateWorkload(g *Graph, cfg WorkloadConfig) ([]QueryPair, error) {
	return gen.GenerateWorkload(g, cfg)
}

// ReadNetwork parses a road network from the text exchange format
// ("n id x y [w]" / "e from to cost" / "b a b cost" lines).
func ReadNetwork(r io.Reader) (*Graph, error) { return roadnet.ReadText(r) }

// WriteNetwork serialises a road network in the text exchange format.
func WriteNetwork(w io.Writer, g *Graph) error { return roadnet.WriteText(w, g) }

// DefaultConfig returns the default configuration for an in-process OPAQUE
// system: shared obfuscation, spatial query clustering, ring-band fake
// selection and an in-memory SSMD server.
func DefaultConfig() SystemConfig { return core.DefaultConfig() }

// NewSystem wires an in-process OPAQUE deployment over the road network g.
func NewSystem(g *Graph, cfg SystemConfig) (*System, error) { return core.NewSystem(g, cfg) }

// NewServer builds a stand-alone directions search server over g.
func NewServer(g *Graph, cfg ServerConfig) (*Server, error) { return server.New(g, cfg) }

// DefaultServerConfig returns the default server configuration.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// NewObfuscatorService builds a stand-alone obfuscator middlebox over the
// simple road map g, forwarding obfuscated queries to exec.
func NewObfuscatorService(g *Graph, exec obfsvc.QueryExecutor, cfg ObfuscatorConfig) (*ObfuscatorService, error) {
	return obfsvc.New(g, exec, cfg)
}

// DefaultObfuscatorConfig returns the default obfuscator service
// configuration.
func DefaultObfuscatorConfig() ObfuscatorConfig { return obfsvc.DefaultConfig() }

// NewClient returns a client for the named user wired to an in-process
// obfuscator service with the given protection settings (fS, fT).
func NewClient(user string, svc *ObfuscatorService, fs, ft int) (*Client, error) {
	return client.NewLocal(user, svc, client.WithProtection(fs, ft))
}

// DialClient connects a client to a networked obfuscator.
func DialClient(user, addr string, fs, ft int) (*Client, error) {
	return client.Dial(user, addr, client.WithProtection(fs, ft))
}

// BreachProbability is Definition 2 of the paper: the probability that a true
// path query is revealed from an obfuscated query with source-set size fs and
// destination-set size ft, i.e. 1/(fs·ft).
func BreachProbability(fs, ft int) float64 { return obfuscate.BreachProbability(fs, ft) }

// NewUniformAdversary returns an adversary with no side knowledge; its breach
// probability matches Definition 2.
func NewUniformAdversary(g *Graph) *Adversary { return privacy.NewUniformAdversary(g) }

// NewWeightedAdversary returns an adversary that weighs candidate endpoints by
// node popularity (yellow-pages style side knowledge).
func NewWeightedAdversary(g *Graph) *Adversary { return privacy.NewWeightedAdversary(g) }

// ShortestPath computes the exact shortest path between two nodes of g with
// Dijkstra's algorithm — the ground-truth primitive applications can use to
// validate returned paths.
func ShortestPath(g *Graph, source, dest NodeID) (Path, error) {
	p, _, err := search.Dijkstra(storage.NewMemoryGraph(g), source, dest)
	return p, err
}

// Fake endpoint selection strategies for ObfuscationConfig.Selector. The ring
// band keeps fakes within a distance band of the true endpoint (cheap,
// Lemma 1-friendly); the uniform strategy spreads them over the whole map
// (maximum diversity, highest cost); the density-aware strategy prefers
// popular nodes (robust against adversaries with public side knowledge); the
// sticky wrapper memoises fakes per endpoint so repeated queries cannot be
// intersected (see experiment E10).

// NewUniformSelector picks fake endpoints uniformly over the whole network.
func NewUniformSelector(seed uint64) EndpointSelector { return obfuscate.NewUniformSelector(seed) }

// NewRingBandSelector picks fake endpoints whose Euclidean distance from the
// true endpoint lies in [minRadius, maxRadius].
func NewRingBandSelector(minRadius, maxRadius float64, seed uint64) (EndpointSelector, error) {
	return obfuscate.NewRingBandSelector(minRadius, maxRadius, seed)
}

// NewDensityAwareSelector picks fake endpoints near the true endpoint with
// probability proportional to their popularity weight.
func NewDensityAwareSelector(radius float64, seed uint64) (EndpointSelector, error) {
	return obfuscate.NewDensityAwareSelector(radius, seed)
}

// NewStickySelector wraps another selector so that the same true endpoint
// always receives the same fakes, defeating repeated-query intersection
// attacks. maxEntries bounds the memo (0 = default).
func NewStickySelector(inner EndpointSelector, maxEntries int) EndpointSelector {
	return obfuscate.NewStickySelector(inner, maxEntries)
}
