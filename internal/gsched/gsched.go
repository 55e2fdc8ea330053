// Package gsched simulates proactive guest-job management on top of an
// unavailability trace — the application the paper's introduction motivates
// (response time of compute-bound batch guests suffers when jobs are placed
// obliviously; availability prediction enables proactive placement, as in
// the cluster-scheduling work the paper cites).
//
// A stream of guest jobs arrives over the trace's test period. A placement
// policy picks a machine for each job (and again after every failure); the
// trace decides whether an unavailability event kills the job before it
// completes. Jobs restart from scratch (or from their last checkpoint) on
// failure. Comparing completion times across policies quantifies how much
// the paper's predictability observation is actually worth.
package gsched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Policy picks machines for guest jobs.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick chooses a machine for a job needing work more CPU time,
	// starting at now, from machines 0..n-1.
	Pick(now sim.Time, work time.Duration, n int) trace.MachineID
	// ObserveFailure informs the policy that its job failed on m at the
	// given time (stateful policies learn from it).
	ObserveFailure(m trace.MachineID, at sim.Time)
}

// Random places jobs uniformly at random.
type Random struct {
	R *rand.Rand
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Pick implements Policy.
func (p *Random) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	return trace.MachineID(p.R.Intn(n))
}

// ObserveFailure implements Policy.
func (p *Random) ObserveFailure(trace.MachineID, sim.Time) {}

// RoundRobin cycles through machines.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	m := trace.MachineID(p.next % n)
	p.next++
	return m
}

// ObserveFailure implements Policy.
func (p *RoundRobin) ObserveFailure(trace.MachineID, sim.Time) {}

// LeastRecentlyFailed prefers the machine whose last observed failure (of
// this policy's own jobs) is oldest — a reactive heuristic that needs no
// prediction.
type LeastRecentlyFailed struct {
	lastFail map[trace.MachineID]sim.Time
	rr       int
}

// Name implements Policy.
func (p *LeastRecentlyFailed) Name() string { return "least-recently-failed" }

// Pick implements Policy.
func (p *LeastRecentlyFailed) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	if p.lastFail == nil {
		p.lastFail = make(map[trace.MachineID]sim.Time)
	}
	best := trace.MachineID(p.rr % n)
	p.rr++
	bestT, seen := p.lastFail[best]
	if !seen {
		return best
	}
	for m := 0; m < n; m++ {
		id := trace.MachineID(m)
		t, ok := p.lastFail[id]
		if !ok {
			return id
		}
		if t < bestT {
			best, bestT = id, t
		}
	}
	return best
}

// ObserveFailure implements Policy.
func (p *LeastRecentlyFailed) ObserveFailure(m trace.MachineID, at sim.Time) {
	if p.lastFail == nil {
		p.lastFail = make(map[trace.MachineID]sim.Time)
	}
	p.lastFail[m] = at
}

// Predictive places each job on the machine with the highest predicted
// survival for the job's execution window — the paper's proactive
// management realized.
type Predictive struct {
	P predict.Predictor
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive(" + p.P.Name() + ")" }

// Pick implements Policy. The choice is deterministic: ties go to the
// lowest machine id, and an undefined (NaN) prediction never wins — see
// pickBest.
func (p *Predictive) Pick(now sim.Time, work time.Duration, n int) trace.MachineID {
	w := sim.Window{Start: now, End: now + work}
	best, _ := pickBest(n, func(m trace.MachineID) float64 {
		return p.P.PredictSurvival(m, w)
	})
	return best
}

// pickBest returns the machine with the highest score and that score.
// It is the one comparison loop every score-ranked placement shares, and
// it pins down the two edges a naive `s > best` loop gets wrong:
//
//   - NaN never wins. Every comparison against NaN is false, so depending
//     on argument order a NaN score could either freeze the running best
//     or (as the seed of the loop) poison it forever. Here NaN scores are
//     skipped outright — a machine whose predictor answers "undefined"
//     cannot be chosen over one with a defined score, however bad.
//   - Ties are deterministic: the lowest machine id wins, so a fleet of
//     identically scored machines yields a stable, reproducible choice
//     rather than one that depends on iteration accidents.
//
// When every score is NaN there is nothing to rank; the fallback is
// machine 0 with a NaN score so the caller can detect the case.
func pickBest(n int, score func(trace.MachineID) float64) (trace.MachineID, float64) {
	best := trace.MachineID(0)
	bestS := math.NaN()
	found := false
	for m := 0; m < n; m++ {
		s := score(trace.MachineID(m))
		if math.IsNaN(s) {
			continue
		}
		if !found || s > bestS {
			best, bestS, found = trace.MachineID(m), s, true
		}
	}
	return best, bestS
}

// ObserveFailure implements Policy.
func (p *Predictive) ObserveFailure(trace.MachineID, sim.Time) {}

// Config controls the job-stream simulation.
type Config struct {
	// Jobs is the number of guest jobs.
	Jobs int
	// JobWork is the CPU time a job needs (uniform range).
	JobWork [2]time.Duration
	// TrainDays is the history prefix available to predictive policies;
	// jobs arrive only in the remaining test period.
	TrainDays int
	// RetryDelay is the pause before a failed job restarts elsewhere.
	RetryDelay time.Duration
	// Checkpoint, when positive, preserves work in multiples of this
	// interval across failures (0 = restart from scratch, like the
	// paper's batch guests).
	Checkpoint time.Duration
	// Seed roots the job stream.
	Seed int64
}

// DefaultConfig runs 400 jobs of 1-5 hours without checkpointing.
func DefaultConfig() Config {
	return Config{
		Jobs:       400,
		JobWork:    [2]time.Duration{time.Hour, 5 * time.Hour},
		TrainDays:  28,
		RetryDelay: time.Minute,
		Seed:       7,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Jobs == 0 {
		c.Jobs = d.Jobs
	}
	if c.JobWork[1] == 0 {
		c.JobWork = d.JobWork
	}
	if c.TrainDays == 0 {
		c.TrainDays = d.TrainDays
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = d.RetryDelay
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("gsched: jobs must be positive, got %d", c.Jobs)
	}
	if c.JobWork[0] <= 0 || c.JobWork[0] > c.JobWork[1] {
		return fmt.Errorf("gsched: bad job work range %v", c.JobWork)
	}
	if c.TrainDays < 0 || c.RetryDelay < 0 || c.Checkpoint < 0 {
		return fmt.Errorf("gsched: negative durations")
	}
	return nil
}

// JobStat records one job's fate.
type JobStat struct {
	Arrival    sim.Time
	Work       time.Duration
	Completion sim.Time // zero if unfinished at span end
	Failures   int
	Done       bool
}

// ResponseTime is completion minus arrival.
func (j JobStat) ResponseTime() time.Duration { return j.Completion - j.Arrival }

// Slowdown is response time divided by the job's pure work.
func (j JobStat) Slowdown() float64 {
	if j.Work <= 0 {
		return 0
	}
	return float64(j.ResponseTime()) / float64(j.Work)
}

// Result summarizes one policy's run.
type Result struct {
	Policy         string
	Completed      int
	Unfinished     int
	TotalFailures  int
	MeanResponse   time.Duration
	MedianResponse time.Duration
	MeanSlowdown   float64
	// WastedWork is CPU time lost to failures (work redone).
	WastedWork time.Duration
	// Migrations counts proactive mid-job moves (SimulateMigrating and
	// SimulateProactive).
	Migrations int
	// Checkpoints counts forecast-triggered checkpoints
	// (SimulateProactive only).
	Checkpoints int
	// SavedWork is CPU time that forecast-triggered checkpoints preserved
	// across failures beyond what the periodic checkpoint cadence would
	// have kept (SimulateProactive only).
	SavedWork time.Duration
}

// Simulate replays the job stream against the trace under one policy.
// The same (trace, cfg) pair presents an identical job stream to every
// policy, so results are directly comparable.
func Simulate(tr *trace.Trace, policy Policy, cfg Config) (Result, error) {
	return replay(tr, tr.BuildIndex(), policy, cfg, nil, policy.Name())
}

// job is one guest job of the stream and, while it runs, its state.
type job struct {
	arrival sim.Time
	work    time.Duration
	now     sim.Time        // the job's clock
	m       trace.MachineID // the machine it runs on
	done    time.Duration   // progress no failure has taken back
	ckpt    time.Duration   // progress pinned by the last review checkpoint
}

// review is the optional placement review of the replay loop. A reviewed
// job runs in chunks of every; after each chunk it survives, act may pin
// its progress (j.ckpt = j.done), move it (j.m) and charge the cost of
// either to j.now. Without a review (nil) a job runs its whole remaining
// work as one chunk, which is Simulate.
type review struct {
	every time.Duration
	act   func(j *job, res *Result)
}

// replay is the one job-replay loop behind Simulate, Compare,
// SimulateMigrating and SimulateProactive: it draws the job stream, runs
// every job in arrival order (so a stateful policy learns from failures in
// the order they happen) and tallies the Result under label.
func replay(tr *trace.Trace, ix *trace.Index, policy Policy, cfg Config, rv *review, label string) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	testStart := tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day
	if testStart >= tr.Span.End {
		return Result{}, fmt.Errorf("gsched: training period consumes the trace span")
	}
	jobRNG := sim.NewSource(cfg.Seed).Stream("gsched/jobs")

	// Pre-draw the job stream so every policy sees the same jobs.
	jobs := make([]job, cfg.Jobs)
	for i := range jobs {
		jobs[i] = job{
			arrival: testStart + sim.Uniform(jobRNG, 0, tr.Span.End-testStart),
			work:    sim.Uniform(jobRNG, cfg.JobWork[0], cfg.JobWork[1]),
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].arrival < jobs[j].arrival })

	res := Result{Policy: label}
	var responses []float64
	var slowdowns []float64
	for i := range jobs {
		stat := runJob(ix, policy, cfg, rv, tr.Machines, tr.Span.End, &jobs[i], &res)
		if !stat.Done {
			res.Unfinished++
			continue
		}
		res.Completed++
		res.TotalFailures += stat.Failures
		responses = append(responses, float64(stat.ResponseTime()))
		slowdowns = append(slowdowns, stat.Slowdown())
	}
	if len(responses) > 0 {
		res.MeanResponse = time.Duration(stats.Mean(responses))
		res.MedianResponse = time.Duration(stats.Median(responses))
		res.MeanSlowdown = stats.Mean(slowdowns)
	}
	return res, nil
}

// runJob executes one job to completion or span end. A failure rolls the
// job's progress back to its furthest checkpoint — the periodic cadence's
// or one a review pinned, whichever kept more; a surviving chunk is NOT an
// implicit checkpoint — and the job is placed again once the outage has
// cleared, unless that is already past span end.
func runJob(ix *trace.Index, policy Policy, cfg Config, rv *review, machines int, spanEnd sim.Time, j *job, res *Result) JobStat {
	stat := JobStat{Arrival: j.arrival, Work: j.work}
	j.now = j.arrival
	placed := false
	for j.now < spanEnd {
		if !placed {
			j.m = policy.Pick(j.now, j.work-j.done, machines)
			placed = true
		}
		chunk := j.work - j.done
		if rv != nil && rv.every < chunk {
			chunk = rv.every
		}
		ev, overlaps := ix.FirstOverlap(j.m, sim.Window{Start: j.now, End: j.now + chunk})
		if !overlaps {
			j.now += chunk
			j.done += chunk
			if j.done == j.work {
				if j.now <= spanEnd {
					stat.Completion = j.now
					stat.Done = true
				}
				return stat
			}
			rv.act(j, res) // only a review cuts a job into chunks
			continue
		}
		// The job dies when the event begins (or immediately, if the
		// machine is already unavailable).
		failAt := max(ev.Start, j.now)
		j.done += failAt - j.now
		var periodic time.Duration
		if cfg.Checkpoint > 0 {
			periodic = (j.done / cfg.Checkpoint) * cfg.Checkpoint
		}
		kept := max(periodic, j.ckpt)
		res.WastedWork += j.done - kept
		res.SavedWork += kept - periodic
		j.done = kept
		stat.Failures++
		policy.ObserveFailure(j.m, failAt)
		// Restart after the outage clears plus the retry delay. Other
		// machines may be free sooner, but the failure must be noticed
		// and the job resubmitted, which the delay models.
		j.now = failAt + cfg.RetryDelay
		if ev.End > j.now {
			// If the policy insists on the same machine it would fail
			// instantly; advancing past the event keeps the comparison
			// fair for the oblivious policies too.
			j.now = ev.End + cfg.RetryDelay
		}
		placed = false
	}
	return stat
}

// moveIfSafer migrates j to best, charging delay, when best's survival
// forecast beats the current machine's by a strict gain of at least
// margin. An undefined (NaN) forecast for the current machine must not pin
// the job there forever — NaN fails every comparison — so any defined
// forecast beats it; an undefined best never wins.
func (j *job) moveIfSafer(best trace.MachineID, bestS, cur, margin float64, delay time.Duration) bool {
	if best == j.m || math.IsNaN(bestS) || !(math.IsNaN(cur) || (bestS > cur && bestS-cur >= margin)) {
		return false
	}
	j.m = best
	j.now += delay
	return true
}

// Compare runs every policy against the same trace and job stream. The
// ground-truth index is built once and shared across policies.
func Compare(tr *trace.Trace, policies []Policy, cfg Config) ([]Result, error) {
	ix := tr.BuildIndex()
	var out []Result
	for _, p := range policies {
		r, err := replay(tr, ix, p, cfg, nil, p.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultPolicies builds the standard comparison lineup: oblivious
// baselines plus the predictive policy driven by the paper's
// history-window predictor trained on the trace prefix.
func DefaultPolicies(tr *trace.Trace, cfg Config, seed int64) []Policy {
	cfg = cfg.withDefaults()
	hw := &predict.HistoryWindow{Trim: 0.1}
	hw.Train(tr.Before(tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day))
	return []Policy{
		&Random{R: sim.NewSource(seed).Stream("policy/random")},
		&RoundRobin{},
		&LeastRecentlyFailed{},
		&Predictive{P: hw},
	}
}

// FormatResults renders a comparison table.
func FormatResults(rs []Result) string {
	var b strings.Builder
	b.WriteString("Proactive scheduling — job completion under placement policies\n")
	fmt.Fprintf(&b, "%-34s %9s %9s %12s %12s %10s %8s\n",
		"policy", "completed", "failures", "mean-resp", "median-resp", "slowdown", "wasted")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-34s %9d %9d %12s %12s %10.2f %8s\n",
			r.Policy, r.Completed, r.TotalFailures,
			r.MeanResponse.Round(time.Minute), r.MedianResponse.Round(time.Minute),
			r.MeanSlowdown, r.WastedWork.Round(time.Hour))
	}
	return b.String()
}

// MinResponse places each job on the machine with the lowest expected
// response time, using predict.ResponseEstimator. For jobs long enough
// that failure is near-certain everywhere, survival probabilities all
// collapse toward zero and stop ranking machines; expected response still
// does, which is why the paper calls response time the primary metric.
type MinResponse struct {
	E *predict.ResponseEstimator
}

// Name implements Policy.
func (p *MinResponse) Name() string { return "min-expected-response" }

// Pick implements Policy.
func (p *MinResponse) Pick(now sim.Time, work time.Duration, n int) trace.MachineID {
	best := trace.MachineID(0)
	bestT := time.Duration(1<<62 - 1)
	for m := 0; m < n; m++ {
		if t := p.E.Expected(trace.MachineID(m), now, work); t < bestT {
			best, bestT = trace.MachineID(m), t
		}
	}
	return best
}

// ObserveFailure implements Policy.
func (p *MinResponse) ObserveFailure(trace.MachineID, sim.Time) {}
