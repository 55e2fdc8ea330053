package gsched

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SurvivalEstimator is the extra capability proactive migration needs: a
// per-machine survival estimate for a job's remaining execution window.
// The Predictive policy provides it.
type SurvivalEstimator interface {
	// Survival estimates P(no failure) for work more CPU time on machine
	// m starting at now.
	Survival(now sim.Time, work time.Duration, m trace.MachineID) float64
}

// Survival implements SurvivalEstimator for the predictive policy.
func (p *Predictive) Survival(now sim.Time, work time.Duration, m trace.MachineID) float64 {
	return p.P.PredictSurvival(m, sim.Window{Start: now, End: now + work})
}

// MigrationConfig controls proactive mid-job migration: periodically
// re-evaluate the predicted survival of the job's remaining work on its
// current machine and move it (paying a delay, keeping its progress — the
// "migrated off" option of the paper's failure model) when another machine
// looks sufficiently safer.
type MigrationConfig struct {
	// CheckEvery is how often a running job reconsiders its placement.
	CheckEvery time.Duration
	// Delay is the cost of one migration (state transfer, resubmission).
	Delay time.Duration
	// Margin is how much better (in survival probability) the best
	// alternative must be before a migration is worth its delay.
	Margin float64
}

// DefaultMigrationConfig reconsiders hourly, pays 2 minutes per move, and
// requires a 15-point survival advantage.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		CheckEvery: time.Hour,
		Delay:      2 * time.Minute,
		Margin:     0.15,
	}
}

// Validate reports configuration errors.
func (m MigrationConfig) Validate() error {
	if m.CheckEvery <= 0 {
		return fmt.Errorf("gsched: migration check interval must be positive, got %v", m.CheckEvery)
	}
	if m.Delay < 0 {
		return fmt.Errorf("gsched: negative migration delay %v", m.Delay)
	}
	if m.Margin < 0 || m.Margin > 1 {
		return fmt.Errorf("gsched: migration margin %v outside [0,1]", m.Margin)
	}
	return nil
}

// SimulateMigrating replays the job stream with proactive migration on top
// of the given policy: after every CheckEvery a job survives, it moves to
// the machine whose survival estimate for the rest of the job beats its
// current machine's by Margin. Jobs keep their progress across migrations
// (live migration moves process state) but lose it to failures exactly as
// in Simulate.
func SimulateMigrating(tr *trace.Trace, policy Policy, est SurvivalEstimator, cfg Config, mig MigrationConfig) (Result, error) {
	if err := mig.Validate(); err != nil {
		return Result{}, err
	}
	rv := &review{every: mig.CheckEvery, act: func(j *job, res *Result) {
		rest := j.work - j.done
		cur := est.Survival(j.now, rest, j.m)
		best, bestS := pickBest(tr.Machines, func(m trace.MachineID) float64 {
			return est.Survival(j.now, rest, m)
		})
		if j.moveIfSafer(best, bestS, cur, mig.Margin, mig.Delay) {
			res.Migrations++
		}
	}}
	return replay(tr, tr.BuildIndex(), policy, cfg, rv, policy.Name()+"+migration")
}
