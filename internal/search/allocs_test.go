package search

import (
	"testing"

	"opaque/internal/roadnet"
	"opaque/internal/storage"
)

// TestSearchKernelAllocs pins the allocation contract of the flat kernels: a
// distance query on a held workspace and an SSMD row appended into a reused
// table allocate nothing, and a small Q(S,T) through the processor stays
// within a fixed budget (the table's columns, its arena growth and the
// pooled workspace checkouts).
func TestSearchKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool reuse")
	}
	acc := storage.NewMemoryGraph(mediumGraph(t))
	sources := []roadnet.NodeID{5, 105, 305}
	dests := []roadnet.NodeID{77, 301, 512, 640}
	w := NewWorkspace(acc.NumNodes())

	distance := func() {
		if _, _, err := w.DijkstraDistance(acc, sources[0], dests[3]); err != nil {
			t.Fatal(err)
		}
	}
	row := NewTable(nil, dests)
	appendRow := func() {
		row.Dist, row.Ends, row.Nodes = row.Dist[:0], row.Ends[:0], row.Nodes[:0]
		if _, err := w.AppendSSMD(acc, sources[0], dests, &row); err != nil {
			t.Fatal(err)
		}
	}
	proc := NewProcessor(acc)
	evaluate := func() {
		if _, err := proc.Evaluate(sources, dests); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		run       func()
		maxAllocs float64
	}{
		{"Workspace.DijkstraDistance", distance, 0},
		{"Workspace.AppendSSMD", appendRow, 0},
		{"Processor.Evaluate 3x4", evaluate, 13},
	} {
		tc.run() // warm the workspace, the row arena and the pool
		if allocs := testing.AllocsPerRun(50, tc.run); allocs > tc.maxAllocs {
			t.Errorf("%s allocated %v times per run, want at most %v", tc.name, allocs, tc.maxAllocs)
		} else {
			t.Logf("%s: %v allocs", tc.name, allocs)
		}
	}
}
