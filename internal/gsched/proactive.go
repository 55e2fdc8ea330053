package gsched

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProactiveConfig controls forecast-driven checkpoint-or-migrate reviews:
// a running job periodically forecasts its machine's survival over the
// next Horizon and, when the forecast drops below SurvivalFloor, acts
// *before* the predicted unavailability window — migrating when a clearly
// safer machine exists, checkpointing in place otherwise. This is the
// proactive loop the paper's predictability findings motivate: S3/S4/S5
// windows recur at the same clock hours, so an online forecaster sees
// them coming.
type ProactiveConfig struct {
	// CheckEvery is the review cadence.
	CheckEvery time.Duration
	// Horizon is how far ahead each review forecasts (capped at the job's
	// remaining work).
	Horizon time.Duration
	// SurvivalFloor triggers action when the current machine's horizon
	// survival forecast falls below it. An undefined (NaN) forecast also
	// triggers — no forecast is no reassurance.
	SurvivalFloor float64
	// CheckpointCost is the pause to write one checkpoint.
	CheckpointCost time.Duration
	// MigrateDelay is the cost of one migration (state transfer and
	// resubmission), as in MigrationConfig.
	MigrateDelay time.Duration
	// MigrateMargin is how much better the best alternative's forecast
	// must be before migrating beats checkpointing in place.
	MigrateMargin float64
	// Metrics, when set, receives live counters (checkpoints, migrations,
	// saved/wasted CPU seconds) and a per-review forecast latency
	// histogram. Instrumentation never touches the simulation's random
	// streams, so results are identical with or without it.
	Metrics *obs.Registry
}

// DefaultProactiveConfig reviews every 30 minutes with a 2-hour horizon,
// acts below 60% survival, pays 30 seconds per checkpoint and 2 minutes
// per migration, and migrates on a 15-point advantage.
func DefaultProactiveConfig() ProactiveConfig {
	return ProactiveConfig{
		CheckEvery:     30 * time.Minute,
		Horizon:        2 * time.Hour,
		SurvivalFloor:  0.6,
		CheckpointCost: 30 * time.Second,
		MigrateDelay:   2 * time.Minute,
		MigrateMargin:  0.15,
	}
}

// Validate reports configuration errors.
func (p ProactiveConfig) Validate() error {
	if p.CheckEvery <= 0 {
		return fmt.Errorf("gsched: proactive check interval must be positive, got %v", p.CheckEvery)
	}
	if p.Horizon <= 0 {
		return fmt.Errorf("gsched: proactive horizon must be positive, got %v", p.Horizon)
	}
	if p.SurvivalFloor < 0 || p.SurvivalFloor > 1 {
		return fmt.Errorf("gsched: survival floor %v outside [0,1]", p.SurvivalFloor)
	}
	if p.CheckpointCost < 0 || p.MigrateDelay < 0 {
		return fmt.Errorf("gsched: negative proactive costs")
	}
	if p.MigrateMargin < 0 || p.MigrateMargin > 1 {
		return fmt.Errorf("gsched: migrate margin %v outside [0,1]", p.MigrateMargin)
	}
	return nil
}

// ForecastSource is the minimal surface the proactive loop needs from a
// forecaster: a survival forecast for one machine over one window. Both
// the online forecaster (*forecast.Online) and every offline
// predict.Predictor satisfy it.
type ForecastSource interface {
	PredictSurvival(m trace.MachineID, w sim.Window) float64
}

// ForecastEstimator adapts a ForecastSource to the SurvivalEstimator the
// migrating and proactive review rules consume — this is how an online
// forecaster plugs into SimulateProactive.
type ForecastEstimator struct{ F ForecastSource }

// Survival implements SurvivalEstimator.
func (e ForecastEstimator) Survival(now sim.Time, work time.Duration, m trace.MachineID) float64 {
	return e.F.PredictSurvival(m, sim.Window{Start: now, End: now + work})
}

// proactiveMetrics is the resolved instrument set, nil-safe when unused.
type proactiveMetrics struct {
	checkpoints *obs.Counter
	migrations  *obs.Counter
	saved       *obs.Gauge
	wasted      *obs.Gauge
	latency     *obs.Histogram
}

func newProactiveMetrics(r *obs.Registry) *proactiveMetrics {
	if r == nil {
		return nil
	}
	return &proactiveMetrics{
		checkpoints: r.Counter("fgcs_gsched_proactive_checkpoints_total",
			"Forecast-triggered checkpoints written before predicted unavailability."),
		migrations: r.Counter("fgcs_gsched_proactive_migrations_total",
			"Forecast-triggered mid-job migrations."),
		saved: r.Gauge("fgcs_gsched_proactive_saved_cpu_seconds",
			"Guest CPU seconds preserved by proactive checkpoints beyond the periodic cadence."),
		wasted: r.Gauge("fgcs_gsched_wasted_cpu_seconds",
			"Guest CPU seconds lost to failures (work redone)."),
		latency: r.Histogram("fgcs_gsched_forecast_latency_seconds",
			"Wall-clock latency of one placement review's survival forecasts.",
			obs.ExpBuckets(1e-7, 4, 12)),
	}
}

// SimulateProactive replays the job stream with forecast-driven
// checkpoint/migrate reviews on top of the given policy. Placement and
// failure rules are Simulate's own (the same replay loop, job stream and
// ground-truth index), so its Result is directly comparable against the
// reactive baseline's: the difference is only what the reviews save.
func SimulateProactive(tr *trace.Trace, policy Policy, est SurvivalEstimator, cfg Config, pro ProactiveConfig) (Result, error) {
	if err := pro.Validate(); err != nil {
		return Result{}, err
	}
	met := newProactiveMetrics(pro.Metrics)
	rv := &review{every: pro.CheckEvery, act: func(j *job, res *Result) {
		// Forecast the next horizon on the current machine.
		horizon := min(pro.Horizon, j.work-j.done)
		var t0 time.Time
		if met != nil {
			t0 = time.Now()
		}
		cur := est.Survival(j.now, horizon, j.m)
		danger := math.IsNaN(cur) || cur < pro.SurvivalFloor
		best, bestS := j.m, math.NaN()
		if danger {
			best, bestS = pickBest(tr.Machines, func(m trace.MachineID) float64 {
				return est.Survival(j.now, horizon, m)
			})
		}
		if met != nil {
			met.latency.Observe(time.Since(t0).Seconds())
		}
		if !danger {
			return
		}
		// Unavailability is forecast within the horizon. First pin the
		// job's progress with a checkpoint — it is cheap, and it bounds
		// the loss no matter where the job runs next or how wrong the
		// forecast turns out to be. Then additionally move the job when
		// a clearly safer machine exists; forecasts are imperfect, and
		// the checkpoint is what keeps a mistaken migration from
		// costing more than MigrateDelay.
		if j.done > j.ckpt {
			j.ckpt = j.done
			j.now += pro.CheckpointCost
			res.Checkpoints++
			if met != nil {
				met.checkpoints.Inc()
			}
		}
		if j.moveIfSafer(best, bestS, cur, pro.MigrateMargin, pro.MigrateDelay) {
			res.Migrations++
			if met != nil {
				met.migrations.Inc()
			}
		}
	}}
	res, err := replay(tr, tr.BuildIndex(), policy, cfg, rv, policy.Name()+"+proactive")
	if err == nil && met != nil {
		met.saved.Set(res.SavedWork.Seconds())
		met.wasted.Set(res.WastedWork.Seconds())
	}
	return res, err
}
