package experiments

import "testing"

// benchRunner wraps one experiment runner as a testing.B benchmark at small
// scale, so `go test -bench` tracks the same code paths cmd/opaque-bench
// times (the BENCH_<date>.json perf record carries the full-scale numbers).
func benchRunner(b *testing.B, r Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16 times the flat live-update pipeline: copy-on-write apply plus
// full CH re-customization against the rebuild baseline.
func BenchmarkE16(b *testing.B) { benchRunner(b, E16LiveUpdates{}) }

// BenchmarkE17 times the live-update pipeline: arc-level re-customization
// against the full pass.
func BenchmarkE17(b *testing.B) { benchRunner(b, E17CellUpdates{}) }

// BenchmarkE18 times the streaming ingestion pipeline: coalesced update
// batches plus pipelined re-customization under concurrent query load.
func BenchmarkE18(b *testing.B) { benchRunner(b, E18Streaming{}) }

// BenchmarkE19 times the fleet serving tier: scatter/gather over two
// in-process shards against the single-server baseline, with every merged
// table verified against the reference.
func BenchmarkE19(b *testing.B) { benchRunner(b, E19Fleet{}) }

// BenchmarkE20 times the availability-under-faults battery: the fleet
// workload with one shard crashed, restarted and blackholed in turn, every
// surviving reply verified against the reference.
func BenchmarkE20(b *testing.B) { benchRunner(b, E20Faults{}) }
