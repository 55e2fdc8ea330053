package loadgen

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunForecastEvaluation is the acceptance property behind `make
// forecast-smoke`: on a fixed-seed replayed fleet trace, forecast-driven
// proactive checkpoint/migrate wastes at least the gated fraction less
// guest CPU time than the reactive baseline without losing throughput.
func TestRunForecastEvaluation(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunForecast(ForecastConfig{
		Machines: 8, Days: 14, TrainDays: 7, Jobs: 60, Seed: 1, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("fixed-seed evaluation missed its gates: %v", res.Violations)
	}
	if res.WasteReduction < 0.10 {
		t.Errorf("waste reduction %.3f below the 10%% acceptance bar", res.WasteReduction)
	}
	if res.Proactive.Completed < res.Reactive.Completed {
		t.Errorf("proactive completed %d, reactive %d", res.Proactive.Completed, res.Reactive.Completed)
	}
	if res.Checkpoints == 0 || res.OnlineEvents == 0 {
		t.Errorf("proactive loop inactive: %+v", res)
	}
	// The proactive run's counters and forecast latency histogram landed
	// in the supplied registry.
	var sawCkpt, sawLatency bool
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "fgcs_gsched_proactive_checkpoints_total":
			sawCkpt = true
		case "fgcs_gsched_forecast_latency_seconds":
			sawLatency = true
		}
	}
	if !sawCkpt || !sawLatency {
		t.Errorf("proactive metrics missing from registry: checkpoints %v latency %v", sawCkpt, sawLatency)
	}
}

// TestRunForecastPhase drives the networked forecast phase: a small fleet
// registers and heartbeats against forecast-enabled shards, then batched
// forecast queries are measured and answer with known nodes.
func TestRunForecastPhase(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 500, Shards: 2, BatchSize: 100,
		HeartbeatRounds: 2, DiscoverOps: 5, Concurrency: 4,
		Forecast: true, ForecastOps: 10, ForecastNames: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forecast.Ops != 10 {
		t.Fatalf("forecast phase ran %d ops, want 10", res.Forecast.Ops)
	}
	if res.ForecastKnown == 0 {
		t.Fatal("forecast phase returned no known nodes")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("ungated run reported violations: %v", res.Violations)
	}
}

// TestRunForecastPhaseSLO pins that the forecast p99 objective is wired
// into the violation check.
func TestRunForecastPhaseSLO(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 100, Shards: 1, DiscoverOps: 2, Concurrency: 2,
		Forecast: true, ForecastOps: 3, ForecastNames: 8,
		SLO: SLO{ForecastP99: time.Nanosecond}, // impossible on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("impossible forecast SLO not reported as violated")
	}
}

// TestForecastConfigValidation pins the evaluation's config errors.
func TestForecastConfigValidation(t *testing.T) {
	cases := []ForecastConfig{
		{Machines: -1},
		{Days: 10, TrainDays: 10},
		{MinWasteReduction: 1.5},
	}
	for _, c := range cases {
		if _, err := RunForecast(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := (Config{Nodes: 10, ForecastOps: -1}).Validate(); err == nil {
		t.Error("negative forecast ops accepted")
	}
}
