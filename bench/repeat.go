package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// committed names and regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// repeatRuns is the self-agreement mode: the whole workload set n times in
// one invocation, the order reversed on every other round and the seed
// advanced by one per round, then for every end-to-end metric of every
// workload the median, the quartiles and (max−min)/median beside the bound
// BENCHMARK.json commits. It returns the exit code: 1 when a metric's spread
// leaves its bound or a run fails. setup_s is printed but not judged, as in
// the acceptance procedure: its spread across runs is what its bound is for.
//
// peak_rss_mb is the process's lifetime maximum, so within one invocation it
// can only rise; judge it from separate invocations.
func repeatRuns(n int, opt options) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -repeat reads the committed bounds: %v\n", err)
		return 2
	}
	opt.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per round
	for round := 0; round < n; round++ {
		order := make([]*workload, len(workloads))
		for i := range workloads {
			order[i] = &workloads[i]
			if round%2 == 1 {
				order[i] = &workloads[len(workloads)-1-i]
			}
		}
		ropt := opt
		ropt.seed = opt.seed + uint64(round)
		for _, w := range order {
			res, err := runWorkload(w, ropt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: round %d %s: %v\n", round, w.name, err)
				return 1
			}
			if !res.passed(w) {
				fmt.Fprintf(os.Stderr, "bench: round %d %s: %d of %d operations failed: %v\n", round, w.name, res.Failed, res.Attempted, res.firstErr)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s done\n", round+1, n, w.name)
		}
	}

	code := 0
	fmt.Printf("%-14s %-22s %12s %12s %12s %9s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for i := range workloads {
		for _, def := range man.EndToEnd {
			vs := values[workloads[i].name][def.Name]
			sort.Float64s(vs)
			med := quantile(vs, 0.5)
			spread := ratio(vs[len(vs)-1]-vs[0], med)
			verdict := ""
			if def.Name != "setup_s" && def.Name != "peak_rss_mb" && spread > def.Bound {
				verdict = "  OUTSIDE BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %12.4f %8.1f%% %6.0f%%%s\n", workloads[i].name, def.Name,
				quantile(vs, 0.25), med, quantile(vs, 0.75), 100*spread, 100*def.Bound, verdict)
		}
	}
	return code
}
