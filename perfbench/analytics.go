package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"repro/internal/contention"
	"repro/internal/forecast"
	"repro/internal/gsched"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Requests per pass: each is one placement query answered offline — a
// horizon forecast for up to requestMachines machines, then the best pick.
// The count gives every run a few thousand latency samples.
const (
	paperRequests   = 100
	fleetRequests   = 160
	requestMachines = 64
)

// timedPredictor wraps a predict.Predictor to time its training and its
// predictions from outside.
type timedPredictor struct {
	p              predict.Predictor
	train, predict time.Duration
}

func (t *timedPredictor) Name() string { return t.p.Name() }

func (t *timedPredictor) Train(tr *trace.Trace) {
	t0 := time.Now()
	t.p.Train(tr)
	t.train += time.Since(t0)
}

func (t *timedPredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	t0 := time.Now()
	v := t.p.PredictCount(m, w)
	t.predict += time.Since(t0)
	return v
}

func (t *timedPredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	t0 := time.Now()
	v := t.p.PredictSurvival(m, w)
	t.predict += time.Since(t0)
	return v
}

// metricName maps a predictor's report name to its metric name.
func metricName(predictor string) string {
	return strings.TrimSuffix(strings.ReplaceAll(predictor, "(", "-"), ")")
}

// passOut is what one pass produced, kept for the output checks and the
// per-layer metrics.
type passOut struct {
	dur         time.Duration
	requests    []float64 // ms
	tr          *trace.Trace
	encoded     []byte
	bf          *trace.BlockFile
	analyzer    *trace.StreamAnalyzer
	eval        *predict.Evaluation
	evalCfg     predict.EvalConfig
	pointqSum   uint64
	pointqM     []trace.MachineID
	decoded     int
	timed       []*timedPredictor
	ingested    int64
	reactive    gsched.Result
	proactive   gsched.Result
	gcfg        gsched.Config
	transitions float64
}

// analyticsRun holds one analytics workload's inputs.
type analyticsRun struct {
	rc    *runCtx
	fleet *trace.Trace // fleet-analytics: the recorded fleet; nil for paper-repro
}

// requests is the number of placement queries in one pass.
func (a *analyticsRun) requests() int {
	if a.fleet == nil {
		return paperRequests
	}
	return fleetRequests
}

func runPaperRepro(rc *runCtx) error {
	return (&analyticsRun{rc: rc}).measure()
}

func runFleetAnalytics(rc *runCtx) error {
	a := &analyticsRun{rc: rc}
	var setups []float64
	// Generation takes tens of milliseconds, so it repeats until a second
	// is spent as well, for a steady median.
	start := time.Now()
	for i := 0; i < rc.size.setupReps || time.Since(start) < time.Second; i++ {
		t0 := time.Now()
		tr, err := markov.GenerateScenario("enterprise", markov.GenConfig{
			Machines: rc.size.fleetMachines, Days: rc.size.fleetDays, Seed: rc.seed,
		})
		if err != nil {
			return fmt.Errorf("generate fleet: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		a.fleet = tr
	}
	rc.set("setup_s", median(setups))
	rc.set("markov.generate_s", median(setups))
	return a.measure()
}

// measure runs passes until the run's time is spent. paper-repro has no
// inputs to prepare, so its set-up is its warm-up: setupReps full passes
// whose median time is setup_s. In a traced run the passes alternate
// untraced and traced; the per-layer metrics come from the traced ones and
// the tracing overhead from comparing the two.
func (a *analyticsRun) measure() error {
	rc := a.rc
	heap := startHeapSampler()
	defer heap.close()

	if a.fleet == nil {
		var setups []float64
		for i := 0; i < rc.size.setupReps; i++ {
			out, err := a.pass(false)
			if err != nil {
				return err
			}
			setups = append(setups, out.dur.Seconds())
		}
		rc.set("setup_s", median(setups))
	} else if _, err := a.pass(false); err != nil { // warm-up
		return err
	}

	var plain, traced, peaks, rates, requests []float64
	var last *passOut
	start := time.Now()
	for i := 0; time.Since(start) < rc.seconds || i < 2; i++ {
		withSpans := rc.traced && i%2 == 1
		heap.reset()
		rc.attempted.Add(1)
		out, err := a.pass(withSpans)
		peaks = append(peaks, heap.reset())
		if err != nil {
			rc.fail("pass %d: %v", i, err)
			continue
		}
		if err := a.check(out); err != nil {
			rc.fail("pass %d: %v", i, err)
		}
		if withSpans {
			traced = append(traced, out.dur.Seconds())
			last = out
		} else {
			plain = append(plain, out.dur.Seconds())
			machineDays := float64(out.tr.Machines) * out.tr.Span.Duration().Hours() / 24
			rates = append(rates, machineDays/out.dur.Seconds())
			requests = append(requests, out.requests...)
		}
	}

	// A pass is the unit of work: the median over passes keeps one pass
	// disturbed by the host from moving the result.
	rc.set("peak_heap_mb", median(peaks))
	rc.set("throughput_per_s", median(rates))
	rc.set("request_p50_ms", quantile(requests, 0.50))
	rc.set("request_p90_ms", quantile(requests, 0.90))
	if rc.traced && last != nil {
		rc.set("bench.tracing_overhead_ratio", median(traced)/median(plain)-1)
		a.layerMetrics(last)
	}
	return nil
}

// pass runs the pipeline once. Output checks run afterwards, outside the
// timed pass.
func (a *analyticsRun) pass(withSpans bool) (*passOut, error) {
	rc := a.rc
	t := newTracer(false)
	if withSpans {
		t = rc.tr
	}
	out := &passOut{}
	start := time.Now()
	root := t.begin(-1, "bench", "bench.pass")
	err := a.stages(t, root, out)
	t.end(root)
	out.dur = time.Since(start)
	return out, err
}

func (a *analyticsRun) stages(t *tracer, root int, out *passOut) error {
	rc := a.rc
	seed := rc.seed
	traced := t.on

	if a.fleet == nil {
		opt := contention.DefaultOptions()
		opt.Measure = 150 * time.Second
		opt.Combos = 2
		opt.Seed = seed
		err := t.do(root, "contention", "contention.find_thresholds", func() error {
			// A reproduction starts cold: the alone-run calibration
			// cache lives for one process, which is one pass here.
			contention.ResetAloneCache()
			_, _, _, err := contention.FindThresholds(opt)
			return err
		})
		if err != nil {
			return fmt.Errorf("find thresholds: %w", err)
		}
		cfg := testbed.DefaultConfig()
		cfg.Seed = seed
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		err = t.do(root, "testbed", "testbed.run", func() (err error) {
			out.tr, err = testbed.Run(cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		if reg != nil {
			out.transitions = familySum(reg, "fgcs_sim_transitions_total")
		}
	} else {
		out.tr = a.fleet
	}
	tr := out.tr

	encoded := tr
	if rc.defects.corruptTrace {
		encoded = tr.Clone()
		i := len(encoded.Events) / 2
		encoded.Events = append(encoded.Events[:i], encoded.Events[i+1:]...)
	}
	err := t.do(root, "trace", "trace.encode", func() error {
		var buf bytes.Buffer
		if err := encoded.WriteBlocks(&buf, nil); err != nil {
			return err
		}
		out.encoded = buf.Bytes()
		return nil
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}

	workers := 1
	if a.fleet != nil {
		workers = 2
	}
	err = t.do(root, "trace", "trace.analyze", func() (err error) {
		if out.bf, err = trace.NewBlockFileBytes(out.encoded); err != nil {
			return err
		}
		out.analyzer, err = trace.AnalyzeBlockFiles([]*trace.BlockFile{out.bf}, workers)
		if err != nil {
			return err
		}
		out.analyzer.Table2()
		for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
			out.analyzer.IntervalECDF(dt)
			out.analyzer.HourlyOccurrences(dt)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}

	if a.fleet != nil {
		out.pointqM = pointQueryMachines(tr.Machines, seed)
		err = t.do(root, "trace", "trace.pointq", func() error {
			ix := trace.NewBlockIndex(out.bf)
			out.pointqSum = pointQueries(ix, out.bf.Header().Span, out.pointqM)
			out.decoded = ix.BlocksDecoded()
			return ix.Err()
		})
		if err != nil {
			return fmt.Errorf("point queries: %w", err)
		}
	}

	preds := predict.DefaultPredictors()
	if traced {
		for i, p := range preds {
			tp := &timedPredictor{p: p}
			out.timed = append(out.timed, tp)
			preds[i] = tp
		}
	}
	out.evalCfg = predict.DefaultEvalConfig()
	err = t.do(root, "predict", "predict.evaluate", func() (err error) {
		out.eval, err = predict.Evaluate(tr, preds, out.evalCfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}

	err = t.do(root, "markov", "markov.fit", func() error {
		_, err := markov.Fit(tr, markov.FitOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("markov fit: %w", err)
	}

	var on *forecast.Online
	err = t.do(root, "forecast", "forecast.ingest", func() (err error) {
		on, err = forecast.New(forecast.Config{Calendar: tr.Calendar, Machines: tr.Machines, Start: tr.Span.Start})
		if err != nil {
			return err
		}
		for _, ev := range tr.Events {
			on.ObserveEvent(ev)
		}
		on.AdvanceTo(tr.Span.End)
		out.ingested = on.Events()
		return nil
	})
	if err != nil {
		return fmt.Errorf("forecast ingest: %w", err)
	}

	k := min(requestMachines, tr.Machines)
	err = t.do(root, "forecast", "forecast.query", func() error {
		for i := 0; i < a.requests(); i++ {
			w := sim.Window{Start: tr.Span.End + sim.Time(i%24)*time.Hour}
			w.End = w.Start + time.Hour
			t0 := time.Now()
			best, bestS := trace.MachineID(-1), -1.0
			for j := 0; j < k; j++ {
				m := trace.MachineID((i*k + j) % tr.Machines)
				if f := on.ForecastWindow(m, w); f.Survival > bestS {
					best, bestS = m, f.Survival
				}
			}
			if !t.on {
				out.requests = append(out.requests, ms(time.Since(t0)))
			}
			if best < 0 || math.IsNaN(bestS) {
				return fmt.Errorf("request %d picked no machine", i)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("forecast query: %w", err)
	}

	out.gcfg = gsched.DefaultConfig()
	out.gcfg.Seed = seed
	trainEnd := tr.Span.Start + sim.Time(out.gcfg.TrainDays)*sim.Day
	var policies []gsched.Policy
	hw := &predict.HistoryWindow{Trim: 0.1}
	err = t.do(root, "predict", "predict.train_policies", func() error {
		policies = gsched.DefaultPolicies(tr, out.gcfg, seed)
		hw.Train(tr.Before(trainEnd))
		return nil
	})
	if err != nil {
		return err
	}
	var results []gsched.Result
	err = t.do(root, "gsched", "gsched.compare", func() (err error) {
		results, err = gsched.Compare(tr, policies, out.gcfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("gsched compare: %w", err)
	}
	reactive := (&gsched.Predictive{P: hw}).Name()
	for _, r := range results {
		if r.Policy == reactive {
			out.reactive = r
		}
	}
	if out.reactive.Policy == "" {
		return fmt.Errorf("gsched compare has no %s result", reactive)
	}
	err = t.do(root, "gsched", "gsched.proactive", func() (err error) {
		out.proactive, err = gsched.SimulateProactive(tr, &gsched.Predictive{P: hw},
			gsched.ForecastEstimator{F: on}, out.gcfg, gsched.DefaultProactiveConfig())
		return err
	})
	if err != nil {
		return fmt.Errorf("gsched proactive: %w", err)
	}
	return nil
}

// Paper Table 2 cause-share bands, with the tolerance the testbed's own
// calibration test allows.
var (
	cpuBand = [2]float64{0.64, 0.84}
	memBand = [2]float64{0.14, 0.33}
	urrMax  = 0.05
)

// check verifies one pass's outputs against oracles that share no code
// path with the timed stages.
func (a *analyticsRun) check(out *passOut) error {
	tr := out.tr
	if a.fleet == nil {
		if !reflect.DeepEqual(tr.MakeTable2(), out.analyzer.Table2()) {
			return fmt.Errorf("block-file Table 2 differs from Trace.MakeTable2")
		}
		for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
			if !reflect.DeepEqual(tr.IntervalLengths(dt), out.analyzer.IntervalLengths(dt)) {
				return fmt.Errorf("block-file Figure 6 intervals differ from the trace's (%v)", dt)
			}
			if !reflect.DeepEqual(tr.HourlyOccurrences(dt), out.analyzer.HourlyOccurrences(dt)) {
				return fmt.Errorf("block-file Figure 7 bins differ from the trace's (%v)", dt)
			}
		}
		t2 := out.analyzer.Table2()
		if t2.CPUPct[0] < cpuBand[0] || t2.CPUPct[1] > cpuBand[1] ||
			t2.MemoryPct[0] < memBand[0] || t2.MemoryPct[1] > memBand[1] || t2.URRPct[1] > urrMax {
			return fmt.Errorf("Table 2 shares outside the paper's bands: cpu %v mem %v urr %v",
				t2.CPUPct, t2.MemoryPct, t2.URRPct)
		}
	} else {
		serial, err := trace.AnalyzeBlockFiles([]*trace.BlockFile{out.bf}, 1)
		if err != nil {
			return fmt.Errorf("serial analyzer: %w", err)
		}
		if err := sameAnalysis(serial, out.analyzer); err != nil {
			return fmt.Errorf("2-worker analyzer differs from serial: %w", err)
		}
		if sum := pointQueries(tr.BuildIndex(), tr.Span, out.pointqM); sum != out.pointqSum {
			return fmt.Errorf("BlockIndex point-query checksum %x, Index %x", out.pointqSum, sum)
		}
		// The semi-Markov predictor costs most of the lineup and shares
		// its inputs with the others, so the block-path oracle scores the
		// rest.
		var cheap []predict.Predictor
		for _, p := range predict.DefaultPredictors() {
			if _, ok := p.(*predict.SemiMarkov); !ok {
				cheap = append(cheap, p)
			}
		}
		ev, err := predict.EvaluateBlocks(out.bf, cheap, out.evalCfg)
		if err != nil {
			return fmt.Errorf("evaluate blocks: %w", err)
		}
		for _, s := range ev.Scores {
			got, ok := out.eval.ScoreByName(s.Name)
			if !ok || !reflect.DeepEqual(got, s) {
				return fmt.Errorf("Evaluate score %+v differs from EvaluateBlocks %+v", got, s)
			}
		}
	}
	if out.ingested == 0 || out.reactive.Completed == 0 || out.proactive.Completed == 0 {
		return fmt.Errorf("vacuous pass: %d events ingested, %d/%d jobs completed",
			out.ingested, out.reactive.Completed, out.proactive.Completed)
	}
	return nil
}

// layerMetrics reports the per-layer metrics of the last traced pass and
// the layers' shares of all traced passes.
func (a *analyticsRun) layerMetrics(out *passOut) {
	rc := a.rc
	rc.setSelfShares(rc.tr.rootsNamed("bench.pass"))
	passes := float64(len(rc.tr.rootsNamed("bench.pass")))
	per := func(name string) float64 { return rc.tr.sumByName(name).Seconds() / passes }

	if a.fleet == nil {
		rc.set("contention.find_thresholds_s", per("contention.find_thresholds"))
		rc.set("testbed.run_s", per("testbed.run"))
		rc.set("testbed.transitions", out.transitions)
	} else {
		rc.set("trace.pointq_s", per("trace.pointq"))
		rc.set("trace.pointq_blocks_decoded", float64(out.decoded))
	}
	rc.set("trace.encode_s", per("trace.encode"))
	rc.set("trace.bytes_per_event", float64(len(out.encoded))/float64(len(out.tr.Events)))
	rc.set("trace.analyze_s", per("trace.analyze"))
	for _, tp := range out.timed {
		name := "predict." + metricName(tp.Name())
		rc.set(name+".train_s", tp.train.Seconds())
		rc.set(name+".predict_s", tp.predict.Seconds())
	}
	rc.set("predict.windows", float64(out.eval.Scores[0].Windows))
	rc.set("markov.fit_s", per("markov.fit"))
	rc.set("forecast.ingest_ns_per_event", float64(per("forecast.ingest"))*1e9/float64(out.ingested))
	k := min(requestMachines, out.tr.Machines)
	rc.set("forecast.query_us", per("forecast.query")*1e6/float64(a.requests()*k))
	rc.set("gsched.compare_s", per("gsched.compare"))
	rc.set("gsched.proactive_s", per("gsched.proactive"))
	rc.set("gsched.waste_ratio.reactive", wasteRatio(out.reactive, out.gcfg))
	rc.set("gsched.waste_ratio.proactive", wasteRatio(out.proactive, out.gcfg))
}

// wasteRatio is wasted guest CPU over the guest CPU the job stream offers
// (jobs times the mean of the uniform work range).
func wasteRatio(r gsched.Result, cfg gsched.Config) float64 {
	offered := float64(cfg.Jobs) * (cfg.JobWork[0] + cfg.JobWork[1]).Seconds() / 2
	return r.WastedWork.Seconds() / offered
}

// familySum totals every series of a counter family.
func familySum(reg *obs.Registry, family string) float64 {
	sum := 0.0
	for _, f := range reg.Snapshot() {
		if f.Name == family {
			for _, s := range f.Series {
				sum += s.Value
			}
		}
	}
	return sum
}

// pointQuerier is the point-query surface *trace.Index and
// *trace.BlockIndex share.
type pointQuerier interface {
	FirstOverlap(trace.MachineID, sim.Window) (trace.Event, bool)
	CountInWindow(trace.MachineID, sim.Window) int
	AnyOverlap(trace.MachineID, sim.Window) bool
	NextEventAfter(trace.MachineID, sim.Time) (trace.Event, bool)
	LastEndBefore(trace.MachineID, sim.Time) (sim.Time, bool)
}

// pointQueryMachines picks the queried machines from the seed.
func pointQueryMachines(machines int, seed int64) []trace.MachineID {
	ms := make([]trace.MachineID, 0, 8)
	for i := 0; i < 8; i++ {
		ms = append(ms, trace.MachineID((int(seed%int64(machines))+i*machines/8)%machines))
	}
	return ms
}

// pointQueries runs every point-query method over 3-hour windows at a
// 2-hour stride on the given machines, folding the answers into a checksum
// so two backends can be compared exactly.
func pointQueries(q pointQuerier, span sim.Window, machines []trace.MachineID) uint64 {
	sum := uint64(1469598103934665603)
	mix := func(v int64) { sum = (sum ^ uint64(v)) * 1099511628211 }
	for _, m := range machines {
		for start := span.Start; start+3*time.Hour <= span.End; start += 2 * time.Hour {
			w := sim.Window{Start: start, End: start + 3*time.Hour}
			if e, ok := q.FirstOverlap(m, w); ok {
				mix(int64(e.Start))
			}
			mix(int64(q.CountInWindow(m, w)))
			if q.AnyOverlap(m, w) {
				mix(1)
			}
			if e, ok := q.NextEventAfter(m, w.Start); ok {
				mix(int64(e.End))
			}
			if t, ok := q.LastEndBefore(m, w.End); ok {
				mix(int64(t))
			}
		}
	}
	return sum
}

// sameAnalysis reports whether two finished analyzers agree on every
// published result: Table 2, the per-machine cause counts, the Figure 6
// interval lengths and the Figure 7 hourly bins.
func sameAnalysis(a, b *trace.StreamAnalyzer) error {
	if a.Events() != b.Events() {
		return fmt.Errorf("events: %d vs %d", a.Events(), b.Events())
	}
	if !reflect.DeepEqual(a.Table2(), b.Table2()) {
		return fmt.Errorf("Table 2 differs")
	}
	if !reflect.DeepEqual(a.CountByCause(), b.CountByCause()) {
		return fmt.Errorf("cause counts differ")
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if !reflect.DeepEqual(a.IntervalLengths(dt), b.IntervalLengths(dt)) {
			return fmt.Errorf("interval lengths differ for %v", dt)
		}
		if !reflect.DeepEqual(a.HourlyOccurrences(dt), b.HourlyOccurrences(dt)) {
			return fmt.Errorf("hourly occurrences differ for %v", dt)
		}
	}
	return nil
}
