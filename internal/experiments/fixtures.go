package experiments

import (
	"math"

	"opaque/internal/gen"
	"opaque/internal/obfuscate"
	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// fixture bundles the shared pieces most experiments need: a network, a paged
// evaluator (so page-fault counts are available), and a workload.
type fixture struct {
	Graph    *roadnet.Graph
	Eval     *pagedEvaluator
	Workload []gen.QueryPair
}

// networkNodes returns the node budget for the given scale.
func networkNodes(scale Scale, small, full int) int {
	if scale == Full {
		return full
	}
	return small
}

// queries returns the workload size for the given scale.
func queries(scale Scale, small, full int) int {
	if scale == Full {
		return full
	}
	return small
}

// newFixture builds the default experiment fixture: a network of the given
// kind, a paged SSMD evaluator over its connectivity-clustered layout and a
// uniform workload.
func newFixture(scale Scale, kind gen.NetworkKind, seed uint64) (*fixture, error) {
	netCfg := gen.DefaultNetworkConfig()
	netCfg.Kind = kind
	netCfg.Nodes = networkNodes(scale, 2500, 40000)
	netCfg.Seed = seed
	g, err := gen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	eval, err := newPagedEvaluator(g, storage.ConnectivityClustered, 128)
	if err != nil {
		return nil, err
	}
	wlCfg := gen.DefaultWorkloadConfig()
	wlCfg.Queries = queries(scale, 60, 400)
	wlCfg.Seed = seed + 1
	wl, err := gen.GenerateWorkload(g, wlCfg)
	if err != nil {
		return nil, err
	}
	return &fixture{Graph: g, Eval: eval, Workload: wl}, nil
}

// defaultBandSelector returns a ring-band selector sized relative to the
// graph extent: fakes land between 2% and 15% of the extent away from the
// true endpoint.
func defaultBandSelector(g *roadnet.Graph, seed uint64) obfuscate.EndpointSelector {
	minX, minY, maxX, maxY := g.Bounds()
	extent := math.Max(maxX-minX, maxY-minY)
	if extent <= 0 {
		extent = 1
	}
	return obfuscate.MustNewRingBandSelector(0.02*extent, 0.15*extent, seed)
}

// requestsFromWorkload converts query pairs into obfuscation requests with
// uniform protection settings.
func requestsFromWorkload(pairs []gen.QueryPair, fs, ft int) []obfuscate.Request {
	out := make([]obfuscate.Request, len(pairs))
	for i, p := range pairs {
		out[i] = obfuscate.Request{
			User:   obfuscate.UserID(userName(i)),
			Source: p.Source,
			Dest:   p.Dest,
			FS:     fs,
			FT:     ft,
		}
	}
	return out
}

// userName produces stable synthetic user identifiers.
func userName(i int) string {
	return "user-" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}

// meanFloat returns the mean of a float64 slice (0 for empty).
func meanFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
