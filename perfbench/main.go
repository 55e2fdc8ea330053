// Command perfbench is the repository's end-to-end benchmark. It drives
// the paper-reproduction pipeline and the iShare service pipeline from
// outside, through their public functions only, and prints one JSON result
// line: the end-to-end metrics of an untraced run (--trace 0) or the
// per-layer breakdown of a traced run (--trace 1).
//
// Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload paper-repro --seed 2005 --seconds 20 --trace 0
//
// README.md in this directory documents the workloads, every metric, and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) error{
	"paper-repro":     runPaperRepro,
	"fleet-analytics": runFleetAnalytics,
	"control-plane":   runControlPlane,
}

// Workload letters in the metric catalog: which workloads set a metric.
// A traced run emits every per-layer metric; one a workload bypasses reads
// 0 there, which is the prediction for that workload.
const (
	wPaper   = "p"
	wFleet   = "f"
	wControl = "c"
	wAll     = "pfc"
)

type metricDef struct {
	name, unit, workloads string
}

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", wAll},
	{"peak_heap_mb", "MB", wAll},
	{"throughput_per_s", "1/s", wAll},
	{"request_p50_ms", "ms", wAll},
}

// layers are the span layers, named after the packages the benchmark
// calls into; "bench" is the benchmark's own code between calls.
var layers = []string{"bench", "contention", "testbed", "trace", "predict", "markov", "forecast", "gsched", "ishare"}

// predictorNames are the metric names of predict.DefaultPredictors.
var predictorNames = []string{"history-window", "history-window-trimmed", "global-rate", "last-day", "ewma-daily", "semi-markov"}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The end-to-end tail, from the run's untraced passes or cycles.
		// It is reported without a bound: on a shared 2-vCPU host its
		// run-to-run spread exceeds any bound a regression gate can use.
		{"request_p90_ms", "ms", wAll},
		{"bench.tracing_overhead_ratio", "ratio", wAll},
		{"bench.generator_late_p99_ms", "ms", wControl},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "ratio", wAll})
	}
	defs = append(defs,
		metricDef{"contention.find_thresholds_s", "s", wPaper},
		metricDef{"testbed.run_s", "s", wPaper},
		metricDef{"testbed.transitions", "count", wPaper},
		metricDef{"markov.generate_s", "s", wFleet},
		metricDef{"trace.encode_s", "s", wPaper + wFleet},
		metricDef{"trace.bytes_per_event", "B", wPaper + wFleet},
		metricDef{"trace.analyze_s", "s", wPaper + wFleet},
		metricDef{"trace.pointq_s", "s", wFleet},
		metricDef{"trace.pointq_blocks_decoded", "count", wFleet},
	)
	for _, p := range predictorNames {
		defs = append(defs,
			metricDef{"predict." + p + ".train_s", "s", wPaper + wFleet},
			metricDef{"predict." + p + ".predict_s", "s", wPaper + wFleet})
	}
	defs = append(defs,
		metricDef{"predict.windows", "count", wPaper + wFleet},
		metricDef{"markov.fit_s", "s", wPaper + wFleet},
		metricDef{"forecast.ingest_ns_per_event", "ns", wPaper + wFleet},
		metricDef{"forecast.query_us", "us", wPaper + wFleet},
		metricDef{"gsched.compare_s", "s", wPaper + wFleet},
		metricDef{"gsched.proactive_s", "s", wPaper + wFleet},
		metricDef{"gsched.waste_ratio.reactive", "ratio", wPaper + wFleet},
		metricDef{"gsched.waste_ratio.proactive", "ratio", wPaper + wFleet},
		metricDef{"ishare.client.heartbeat_batch1_ms", "ms", wControl},
		metricDef{"ishare.client.heartbeat_batch1000_ms", "ms", wControl},
		metricDef{"ishare.wal.bytes_per_digest", "B", wControl},
		metricDef{"forecast.service.observe_state_us", "us", wControl},
		metricDef{"ishare.client.list_shard_ms", "ms", wControl},
		metricDef{"ishare.client.submit_ms", "ms", wControl},
		metricDef{"ishare.node.completed_ratio", "ratio", wControl},
		metricDef{"ishare.registry.requests", "count", wControl},
		metricDef{"ishare.registry.sheds", "count", wControl},
		metricDef{"ishare.registry.wal_appends", "count", wControl},
		metricDef{"ishare.client.retries", "count", wControl},
		metricDef{"ishare.broker.failovers", "count", wControl},
		metricDef{"ishare.broker.resubmissions", "count", wControl},
	)
	for _, op := range []string{"heartbeat", "discover", "forecast", "submit"} {
		defs = append(defs,
			metricDef{"ishare." + op + "_p50_ms", "ms", wControl},
			metricDef{"ishare." + op + "_p99_ms", "ms", wControl})
	}
	return defs
}()

// defects are seeded faults for the benchmark's self-test: each must make
// the output checks fail. They are never set by the command line.
type defects struct {
	corruptTrace bool // lose one event between the trace and its encoding
	dropDigest   bool // acknowledge a registration that was never sent
}

// sizes scale the workloads. The command line always runs fullSizes; the
// self-test shrinks them to stay fast.
type sizes struct {
	fleetMachines int // fleet-analytics generated fleet
	fleetDays     int
	cpNodes       int // control-plane protocol-level nodes
	setupReps     int // set-up repetitions; setup_s is their median
}

var fullSizes = sizes{fleetMachines: 200, fleetDays: 92, cpNodes: 100_000, setupReps: 5}

// runCtx is one benchmark run's state.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	size     sizes
	defects  defects
	outDir   string

	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	values    map[string]float64
	failures  []string
}

func (rc *runCtx) set(name string, v float64) {
	rc.mu.Lock()
	rc.values[name] = v
	rc.mu.Unlock()
}

// fail records one failed operation with its reason (the first few reasons
// go to stderr).
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed.Add(1)
	rc.mu.Lock()
	if len(rc.failures) < 10 {
		rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
	}
	rc.mu.Unlock()
}

// setSelfShares reports each layer's share of the root spans' time.
func (rc *runCtx) setSelfShares(roots []int) {
	self, total := rc.tr.selfTimes(roots)
	for _, l := range layers {
		if total > 0 {
			rc.set(l+".self_share", self[l].Seconds()/total.Seconds())
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and assembles its result. Every metric of the
// mode's catalog is emitted; a metric the workload should have set but
// did not is an error unless failed operations explain it.
func run(rc *runCtx) (*result, error) {
	fn, ok := workloads[rc.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", rc.workload)
	}
	rc.values = make(map[string]float64)
	rc.tr = newTracer(rc.traced)
	if err := fn(rc); err != nil {
		return nil, err
	}
	defs := endToEnd
	if rc.traced {
		defs = perLayer
		if err := rc.tr.write(rc.outDir, fmt.Sprintf("spans-%s-%d.json", rc.workload, rc.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	letter := rc.workload[:1]
	res := &result{Attempted: rc.attempted.Load(), Failed: rc.failed.Load(), Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := rc.values[d.name]
		if !ok && strings.Contains(d.workloads, letter) && res.Failed == 0 {
			return nil, fmt.Errorf("workload %s did not measure %s", rc.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "paper-repro, fleet-analytics or control-plane")
	seed := flag.Int64("seed", 0, "input seed (0 = the workload's default seed)")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceMode := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload briefly in both modes and check the emitted metrics against BENCHMARK.json")
	outDir := flag.String("out", ".bench_out", "directory for span dumps and control-plane WALs")
	flag.Parse()

	if *smoke {
		if err := runSmoke(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, "smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}
	if *seed == 0 {
		*seed = defaultSeeds[*workload]
	}
	rc := &runCtx{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1, size: fullSizes, outDir: *outDir,
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rc.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// defaultSeeds are the seeds the recorded baseline in README.md used.
var defaultSeeds = map[string]int64{"paper-repro": 2005, "fleet-analytics": 7, "control-plane": 1}

// heapSampler tracks the peak live heap (the heap marked live by the last
// completed GC) between resets.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset returns the peak since the last reset, in MiB, and starts a new
// window.
func (h *heapSampler) reset() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
