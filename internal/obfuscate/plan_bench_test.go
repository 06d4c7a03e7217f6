package obfuscate

import (
	"testing"

	"opaque/internal/gen"
)

// BenchmarkObfuscatePlan measures planning alone — clustering, fake
// selection, shuffling and Plan.Validate — on a 10k-node TigerLike map with
// the ring band the networked benchmark configures, RingBand(2000, 15000).
// wide plans one independent 16×16 request at a time; point plans a shared
// batch of 17 3×3 requests, what one point-open batch window collects.
func BenchmarkObfuscatePlan(b *testing.B) {
	cfg := gen.DefaultNetworkConfig()
	cfg.Kind = gen.TigerLike
	cfg.Nodes = 10000
	g := gen.MustGenerate(cfg)
	for _, bc := range []struct {
		name   string
		mode   Mode
		batch  int
		fakes  int
		rounds int
	}{
		{"wide", Independent, 1, 16, 64},
		{"point", Shared, 17, 3, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ocfg := DefaultConfig()
			ocfg.Mode = bc.mode
			ocfg.Selector = MustNewRingBandSelector(2000, 15000, 7)
			o := MustNew(g, ocfg)
			reqs := testRequests(g, bc.rounds*bc.batch, bc.fakes, bc.fakes, 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := i % bc.rounds * bc.batch
				if _, err := o.Obfuscate(reqs[start : start+bc.batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
