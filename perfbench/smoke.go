package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke runs every workload of BENCHMARK.json once, briefly, in both
// modes, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names for its mode, each with its unit.
func runSmoke(outDir string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			size := fullSizes
			size.setupReps = 1
			rc := &runCtx{
				workload: w.Name, seed: defaultSeeds[w.Name], seconds: time.Second,
				traced: traced, size: size, outDir: outDir,
			}
			res, err := run(rc)
			if err != nil {
				return fmt.Errorf("%s (traced %v): %w", w.Name, traced, err)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if err := checkEmitted(res, want); err != nil {
				return fmt.Errorf("%s (traced %v): %w", w.Name, traced, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (traced %v): %d of %d operations failed: %v",
					w.Name, traced, res.Failed, res.Attempted, rc.failures)
			}
			fmt.Fprintf(os.Stderr, "smoke: %s traced=%v: %d metrics, %d operations\n",
				w.Name, traced, len(res.Metrics), res.Attempted)
		}
	}
	return nil
}

func checkEmitted(res *result, want []namedUnit) error {
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}
