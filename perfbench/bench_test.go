package main

import (
	"testing"
	"time"
)

// smallSizes keep the self-test fast; paper-repro is always paper scale.
var smallSizes = sizes{fleetMachines: 24, fleetDays: 42, cpNodes: 4000, setupReps: 1}

// TestOutputChecksCatchSeededDefects runs each workload clean and with a
// seeded defect: clean runs must report no failed operation, and each
// defect must raise the failed count above zero, which shows the output
// checks catch real failures.
func TestOutputChecksCatchSeededDefects(t *testing.T) {
	cases := []struct {
		workload string
		defects  defects
	}{
		{"paper-repro", defects{}},
		{"paper-repro", defects{corruptTrace: true}},
		{"fleet-analytics", defects{}},
		{"fleet-analytics", defects{corruptTrace: true}},
		{"control-plane", defects{}},
		{"control-plane", defects{dropDigest: true}},
	}
	for _, c := range cases {
		rc := &runCtx{
			workload: c.workload, seed: defaultSeeds[c.workload], seconds: time.Second,
			size: smallSizes, defects: c.defects, outDir: t.TempDir(),
		}
		res, err := run(rc)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.workload, c.defects, err)
		}
		seeded := c.defects != defects{}
		if seeded && res.Failed == 0 {
			t.Errorf("%s: seeded defect %+v went undetected (%d operations)", c.workload, c.defects, res.Attempted)
		}
		if !seeded && (res.Failed != 0 || !res.Correct) {
			t.Errorf("%s: clean run failed %d of %d operations: %v", c.workload, res.Failed, res.Attempted, rc.failures)
		}
	}
}

// TestSelfTimesPartitionRoots checks that the layers' self times add up to
// the root spans' time.
func TestSelfTimesPartitionRoots(t *testing.T) {
	tr := newTracer(true)
	add := func(parent int, layer string, start, end int64) int {
		id := tr.begin(parent, layer, layer)
		tr.spans[id].Start, tr.spans[id].End = start, end
		return id
	}
	root := add(-1, "bench", 0, 100)
	a := add(root, "trace", 10, 40)
	add(a, "predict", 20, 30)
	add(root, "gsched", 50, 70)
	self, total := tr.selfTimes([]int{root})
	if total != 100 {
		t.Fatalf("total %v, want 100", total)
	}
	want := map[string]time.Duration{"bench": 50, "trace": 20, "predict": 10, "gsched": 20}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self %v, want %v", l, self[l], d)
		}
	}
}
