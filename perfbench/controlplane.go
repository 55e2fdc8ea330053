package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forecast"
	"repro/internal/ishare"
	"repro/internal/obs"
)

// Control-plane shape. The open-loop generator's rate and churn, the
// broker's job length and the forecast batch are fixed by the workload's
// definition; only the seed varies the inputs.
const (
	cpShards        = 2
	cpLiveNodes     = 8
	cpBatch         = 1000
	cpPhaseAWorkers = 2
	cpRate          = 100 // open-loop heartbeat batches per second
	cpChurn         = 0.20
	cpJobCPUSeconds = 600
	cpForecastNames = 64
	cpDiscoverLimit = 64
	cpPhaseAShare   = 0.5 // share of each cycle spent in phase A
	cpCycles        = 5
)

// Every exchange is bounded, so a stuck dial or a hung peer is counted as
// a failed operation instead of stalling the run.
const (
	cpTimeout       = 2 * time.Second
	cpSubmitTimeout = 10 * time.Second
	cpRequestBudget = 15 * time.Second
)

// cpLimits raises the message bound so the end-of-run check can list a
// whole shard in one exchange.
var cpLimits = ishare.Limits{MaxMessageBytes: 64 << 20}

// cpStates is the stationary availability-state mix synthetic nodes are
// drawn from: the paper's empirical occupancy of the five states.
var cpStates = []struct {
	state string
	p     float64
}{
	{"S1(full)", 0.55},
	{"S2(lowest-priority)", 0.20},
	{"S3(cpu-unavail)", 0.10},
	{"S4(mem-thrash)", 0.05},
	{"S5(machine-unavail)", 0.10},
}

func drawState(r *rand.Rand) string {
	u, acc := r.Float64(), 0.0
	for _, s := range cpStates {
		acc += s.p
		if u < acc {
			return s.state
		}
	}
	return cpStates[len(cpStates)-1].state
}

// simNode is one protocol-level fleet member: it has no listener of its
// own and advertises one of the live nodes' addresses, as a real
// registered node would advertise its own.
type simNode struct {
	name, addr, state string
	load              float64
	gen               int64
	shard             int
}

type controlPlane struct {
	rc      *runCtx
	dir     string
	reg     *obs.Registry
	sharded *ishare.ShardedRegistry
	addrs   []string
	nodes   []*ishare.Node
	client  *ishare.Client
	fleet   []simNode
	batches [][]int // fleet indices, each batch owned by one shard
	broker  *ishare.Broker
	churn   *rand.Rand // phase B state churn, continued across cycles
	hbNext  int        // phase B's next batch, continued across cycles
	jobSeq  atomic.Int64
}

// startControlPlane brings up the shards (WAL and embedded forecaster
// on), the live nodes, and registers the synthetic fleet.
func startControlPlane(rc *runCtx, rep int) (*controlPlane, error) {
	cp := &controlPlane{rc: rc, reg: obs.NewRegistry()}
	cp.dir = filepath.Join(rc.outDir, fmt.Sprintf("cp-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(cp.dir); err != nil {
		return nil, err
	}
	var err error
	cp.sharded, err = ishare.NewShardedRegistryWithOptions(cpShards, ishare.RegistryOptions{
		TTL:      10 * time.Minute,
		Limits:   cpLimits,
		WAL:      &ishare.WALOptions{Dir: cp.dir},
		Forecast: &ishare.ForecastOptions{Scale: 1},
	})
	if err != nil {
		return nil, fmt.Errorf("start shards: %w", err)
	}
	cp.sharded.Instrument(cp.reg, nil)
	cp.addrs = cp.sharded.Addrs()
	cp.client = &ishare.Client{
		Shards: cp.addrs, Timeout: cpTimeout, SubmitTimeout: cpSubmitTimeout,
		Limits: cpLimits, Obs: cp.reg,
	}
	cp.broker = &ishare.Broker{Client: cp.client, DiscoverLimit: cpDiscoverLimit, Obs: cp.reg}
	cp.churn = rand.New(rand.NewSource(rc.seed + 1))
	for i := 0; i < cpLiveNodes; i++ {
		n, err := ishare.NewNode("127.0.0.1:0", ishare.NodeConfig{
			Name:           fmt.Sprintf("live-%d", i),
			RegistryAddrs:  cp.addrs,
			HeartbeatEvery: time.Second,
			Limits:         cpLimits,
			Metrics:        cp.reg,
		})
		if err != nil {
			cp.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		cp.nodes = append(cp.nodes, n)
	}

	r := rand.New(rand.NewSource(rc.seed))
	cp.fleet = make([]simNode, rc.size.cpNodes)
	perShard := make([][]int, cpShards)
	for i := range cp.fleet {
		name := fmt.Sprintf("sim-%07d", i)
		shard := cp.sharded.Owner(name)
		cp.fleet[i] = simNode{
			name: name, addr: cp.nodes[i%cpLiveNodes].Addr(),
			state: drawState(r), load: r.Float64(), gen: 1, shard: shard,
		}
		perShard[shard] = append(perShard[shard], i)
	}
	for _, idx := range perShard {
		for off := 0; off < len(idx); off += cpBatch {
			cp.batches = append(cp.batches, idx[off:min(off+cpBatch, len(idx))])
		}
	}

	var next atomic.Int64
	errs := make(chan error, cpPhaseAWorkers)
	var wg sync.WaitGroup
	for w := 0; w < cpPhaseAWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= len(cp.batches) {
					return
				}
				ds := cp.digests(cp.batches[b], true)
				if b == 0 && rc.defects.dropDigest {
					ds = ds[:len(ds)-1]
				}
				ctx, cancel := context.WithTimeout(context.Background(), cpRequestBudget)
				err := cp.client.RegisterBatch(ctx, cp.addrs[cp.fleet[cp.batches[b][0]].shard], ds)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("register batch %d: %w", b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		cp.close()
		return nil, err
	}
	return cp, nil
}

func (cp *controlPlane) close() {
	for _, n := range cp.nodes {
		n.Close()
	}
	if cp.sharded != nil {
		cp.sharded.Close()
	}
	os.RemoveAll(cp.dir)
}

// digests builds the wire digests of one batch, stamped now.
func (cp *controlPlane) digests(batch []int, withAddr bool) []ishare.NodeDigest {
	now := time.Now().UnixMilli()
	ds := make([]ishare.NodeDigest, len(batch))
	for j, i := range batch {
		n := &cp.fleet[i]
		ds[j] = ishare.NodeDigest{Name: n.name, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
		if withAddr {
			ds[j].Addr = n.addr
		}
	}
	return ds
}

// heartbeat sends one batch and counts it; a transport error or a digest
// the shard does not know (an acknowledged registration lost) fails it.
func (cp *controlPlane) heartbeat(t *tracer, parent int, b int) (time.Duration, bool) {
	ds := cp.digests(cp.batches[b], false)
	ctx, cancel := context.WithTimeout(context.Background(), cpRequestBudget)
	defer cancel()
	cp.rc.attempted.Add(1)
	var missing []string
	t0 := time.Now()
	err := t.do(parent, "ishare", "ishare.heartbeat_batch", func() (err error) {
		missing, err = cp.client.HeartbeatBatch(ctx, cp.addrs[cp.fleet[cp.batches[b][0]].shard], ds)
		return err
	})
	d := time.Since(t0)
	switch {
	case err != nil:
		cp.rc.fail("heartbeat batch %d: %v", b, err)
		return d, false
	case len(missing) > 0:
		cp.rc.fail("heartbeat batch %d: %d acknowledged registrations unknown to their shard (first %s)", b, len(missing), missing[0])
		return d, false
	}
	return d, true
}

// phaseB holds the mixed phase's samples, in milliseconds.
type phaseB struct {
	heartbeat, late, discover, forecast, submit, request []float64
	jobs                                                 []string // completed job IDs
	completed, submitted                                 int
}

func runControlPlane(rc *runCtx) error {
	var setups []float64
	var cp *controlPlane
	for i := 0; i < rc.size.setupReps; i++ {
		if cp != nil {
			cp.close()
		}
		t0 := time.Now()
		var err error
		if cp, err = startControlPlane(rc, i); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cp.close()
	rc.set("setup_s", median(setups))

	heap := startHeapSampler()
	defer heap.close()
	var peaks []float64
	sampleHeap := func(done <-chan struct{}) {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peaks = append(peaks, heap.reset())
				return
			case <-tick.C:
				peaks = append(peaks, heap.reset())
			}
		}
	}

	// The run alternates the two phases in cpCycles cycles, so a slow
	// stretch of the host weighs on both alike. A traced run traces phase
	// B of every other cycle only, for the overhead comparison.
	cycle := rc.seconds / cpCycles
	aDur := time.Duration(float64(cycle) * cpPhaseAShare)
	var aDigests int64
	var aTime time.Duration
	var plain, traced phaseB
	for c := 0; c < cpCycles; c++ {
		heap.reset()
		digests, d := cp.phaseA(aDur, sampleHeap)
		aDigests += digests
		aTime += d
		pb, t := &plain, rc.tr
		if rc.traced {
			if c%2 == 0 {
				t = newTracer(false)
			} else {
				pb = &traced
			}
		}
		cp.phaseB(t, cycle-aDur, pb, sampleHeap)
	}
	rc.set("throughput_per_s", float64(aDigests)/aTime.Seconds())
	rc.set("peak_heap_mb", median(peaks))
	rc.set("request_p50_ms", quantile(plain.request, 0.50))
	rc.set("request_p90_ms", quantile(plain.request, 0.90))

	cp.checkOutputs(&plain, &traced)
	if rc.traced {
		rc.set("bench.tracing_overhead_ratio", median(traced.request)/median(plain.request)-1)
		rc.setSelfShares(rc.tr.rootsNamed("bench."))
		return cp.layerMetrics(&plain, &traced)
	}
	return nil
}

// phaseA runs closed-loop heartbeat batches from cpPhaseAWorkers workers
// for d and returns the digests acknowledged and the time it took.
func (cp *controlPlane) phaseA(d time.Duration, sampleHeap func(<-chan struct{})) (int64, time.Duration) {
	rc := cp.rc
	var digests, next atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cpPhaseAWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				b := int(next.Add(1)-1) % len(cp.batches)
				root := rc.tr.begin(-1, "bench", "bench.phase_a")
				_, ok := cp.heartbeat(rc.tr, root, b)
				rc.tr.end(root)
				if ok {
					digests.Add(int64(len(cp.batches[b])))
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	sampleHeap(done)
	return digests.Load(), time.Since(start)
}

// phaseB runs the mixed phase for d: one open-loop heartbeat generator at
// cpRate batches per second with cpChurn state churn, each batch timed
// from when it was due, and one closed-loop broker placing jobs.
func (cp *controlPlane) phaseB(t *tracer, d time.Duration, out *phaseB, sampleHeap func(<-chan struct{})) {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := cp.churn
		interval := time.Second / cpRate
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			root := t.begin(-1, "bench", "bench.heartbeat")
			b := cp.hbNext % len(cp.batches)
			cp.hbNext++
			for _, i := range cp.batches[b] {
				if r.Float64() < cpChurn {
					n := &cp.fleet[i]
					if s := drawState(r); s != n.state {
						n.state, n.load = s, r.Float64()
						n.gen++
					}
				}
			}
			out.late = append(out.late, ms(time.Since(due)))
			_, ok := cp.heartbeat(t, root, b)
			t.end(root)
			if ok {
				out.heartbeat = append(out.heartbeat, ms(time.Since(due)))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(end); i++ {
			cp.request(t, i, out)
		}
	}()
	go func() { wg.Wait(); close(done) }()
	sampleHeap(done)
}

// request is one placement: discover candidates, forecast a batch of them
// on one shard, and submit a job to the best node.
func (cp *controlPlane) request(t *tracer, i int, out *phaseB) {
	rc := cp.rc
	rc.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), cpRequestBudget)
	defer cancel()
	root := t.begin(-1, "bench", "bench.request")
	defer t.end(root)
	t0 := time.Now()

	var cands []ishare.Candidate
	err := t.do(root, "ishare", "ishare.candidates", func() (err error) {
		cands, err = cp.broker.Candidates(ctx)
		return err
	})
	if err != nil || len(cands) == 0 {
		rc.fail("request %d: discovery returned %d candidates: %v", i, len(cands), err)
		return
	}
	t1 := time.Now()
	shard := i % cpShards
	names := make([]string, 0, cpForecastNames)
	for _, c := range cands {
		if len(names) < cpForecastNames && cp.sharded.Owner(c.Node.Name) == shard {
			names = append(names, c.Node.Name)
		}
	}
	var infos []ishare.ForecastInfo
	err = t.do(root, "ishare", "ishare.forecast", func() (err error) {
		infos, err = cp.client.Forecast(ctx, cp.addrs[shard], names, time.Hour)
		return err
	})
	known := 0
	for _, f := range infos {
		if f.Known {
			known++
		}
	}
	if err != nil || known == 0 {
		rc.fail("request %d: forecast of %d names: %d known: %v", i, len(names), known, err)
		return
	}
	t2 := time.Now()
	job := ishare.JobSpec{Name: "bench-job", CPUSeconds: cpJobCPUSeconds, ID: fmt.Sprintf("job-%d", cp.jobSeq.Add(1))}
	var res *ishare.JobResult
	err = t.do(root, "ishare", "ishare.submit_best", func() (err error) {
		res, _, err = cp.broker.SubmitBest(ctx, job)
		return err
	})
	out.submitted++
	if err != nil || !res.Completed {
		rc.fail("request %d: job %s not completed: %v", i, job.ID, err)
		return
	}
	out.completed++
	out.jobs = append(out.jobs, job.ID)
	t3 := time.Now()
	out.discover = append(out.discover, ms(t1.Sub(t0)))
	out.forecast = append(out.forecast, ms(t2.Sub(t1)))
	out.submit = append(out.submit, ms(t3.Sub(t2)))
	out.request = append(out.request, ms(t3.Sub(t0)))
}

// checkOutputs verifies, after the measured phases, that every placed job
// ran exactly once across the live nodes and that every acknowledged
// registration is listed alive on its shard.
func (cp *controlPlane) checkOutputs(runs ...*phaseB) {
	rc := cp.rc
	execs := make(map[string]int)
	for _, n := range cp.nodes {
		for id, c := range n.ExecutionCounts() {
			execs[id] += c
		}
	}
	for _, pb := range runs {
		for _, id := range pb.jobs {
			if execs[id] != 1 {
				rc.fail("job %s executed %d times", id, execs[id])
			}
		}
	}
	alive := make(map[string]bool)
	ctx, cancel := context.WithTimeout(context.Background(), cpRequestBudget)
	defer cancel()
	for _, addr := range cp.addrs {
		nodes, err := cp.client.ListShard(ctx, addr, 0)
		if err != nil {
			rc.fail("list shard %s: %v", addr, err)
			return
		}
		for _, n := range nodes {
			alive[n.Name] = n.Alive
		}
	}
	lost := 0
	for _, n := range cp.fleet {
		if !alive[n.name] {
			lost++
		}
	}
	if lost > 0 {
		rc.attempted.Add(1)
		rc.fail("%d acknowledged registrations not listed alive", lost)
	}
}

// layerMetrics reports the control plane's per-layer metrics: per-op
// latencies of phase B, single-call costs measured after it, and the
// counters the program exports.
func (cp *controlPlane) layerMetrics(runs ...*phaseB) error {
	rc := cp.rc
	var all phaseB
	for _, pb := range runs {
		all.heartbeat = append(all.heartbeat, pb.heartbeat...)
		all.late = append(all.late, pb.late...)
		all.discover = append(all.discover, pb.discover...)
		all.forecast = append(all.forecast, pb.forecast...)
		all.submit = append(all.submit, pb.submit...)
		all.completed += pb.completed
		all.submitted += pb.submitted
	}
	for op, xs := range map[string][]float64{
		"heartbeat": all.heartbeat, "discover": all.discover, "forecast": all.forecast, "submit": all.submit,
	} {
		rc.set("ishare."+op+"_p50_ms", quantile(xs, 0.50))
		rc.set("ishare."+op+"_p99_ms", quantile(xs, 0.99))
	}
	rc.set("bench.generator_late_p99_ms", quantile(all.late, 0.99))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	timeOp := func(n int, f func() error) (float64, error) {
		var xs []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(xs), nil
	}
	one := cp.batches[0][:1]
	v, err := timeOp(200, func() error {
		_, err := cp.client.HeartbeatBatch(ctx, cp.addrs[cp.fleet[one[0]].shard], cp.digests(one, false))
		return err
	})
	if err != nil {
		return fmt.Errorf("single heartbeat: %w", err)
	}
	rc.set("ishare.client.heartbeat_batch1_ms", v)

	walBytes := func() int64 {
		var n int64
		filepath.Walk(cp.dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				n += info.Size()
			}
			return nil
		})
		return n
	}
	// Unloaded 1000-digest batches; the WAL grows by what each appends
	// (acks come after the write), except across a compaction, which
	// shrinks it and is left out.
	var lat []float64
	var grown, grownDigests int64
	for k := 0; k < 50; k++ {
		batch := cp.batches[k%len(cp.batches)]
		ds := cp.digests(batch, false)
		before := walBytes()
		t0 := time.Now()
		if _, err := cp.client.HeartbeatBatch(ctx, cp.addrs[cp.fleet[batch[0]].shard], ds); err != nil {
			return fmt.Errorf("1000-digest heartbeat: %w", err)
		}
		lat = append(lat, ms(time.Since(t0)))
		if d := walBytes() - before; d > 0 {
			grown += d
			grownDigests += int64(len(ds))
		}
	}
	rc.set("ishare.client.heartbeat_batch1000_ms", median(lat))
	if grownDigests == 0 {
		return fmt.Errorf("no heartbeat batch grew the WAL")
	}
	rc.set("ishare.wal.bytes_per_digest", float64(grown)/float64(grownDigests))

	v, err = timeOp(100, func() error {
		_, err := cp.client.ListShard(ctx, cp.addrs[0], cpDiscoverLimit)
		return err
	})
	if err != nil {
		return fmt.Errorf("list shard: %w", err)
	}
	rc.set("ishare.client.list_shard_ms", v)

	direct := 0
	v, err = timeOp(50, func() error {
		direct++
		res, err := cp.client.Submit(ctx, cp.nodes[direct%cpLiveNodes].Addr(), ishare.JobSpec{
			Name: "bench-direct", CPUSeconds: cpJobCPUSeconds, ID: fmt.Sprintf("direct-%d-%d", rc.seed, direct),
		})
		all.submitted++
		if err == nil && res.Completed {
			all.completed++
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("direct submit: %w", err)
	}
	rc.set("ishare.client.submit_ms", v)
	rc.set("ishare.node.completed_ratio", float64(all.completed)/float64(all.submitted))

	svc, err := forecast.NewService(forecast.ServiceConfig{Scale: 1})
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(rc.seed))
	now := time.Now().UnixMilli()
	t0 := time.Now()
	calls := 0
	for i := range cp.fleet {
		if err := svc.ObserveState(cp.fleet[i].name, drawState(r), now+int64(i)); err != nil {
			return fmt.Errorf("observe state: %w", err)
		}
		calls++
	}
	rc.set("forecast.service.observe_state_us", float64(time.Since(t0).Microseconds())/float64(calls))

	counters := map[string]string{
		"ishare.registry.requests":    "fgcs_registry_requests_total",
		"ishare.registry.sheds":       "fgcs_registry_sheds_total",
		"ishare.registry.wal_appends": "fgcs_registry_wal_appends_total",
		"ishare.client.retries":       "fgcs_client_retries_total",
		"ishare.broker.failovers":     "fgcs_broker_failovers_total",
		"ishare.broker.resubmissions": "fgcs_broker_resubmissions_total",
	}
	for name, family := range counters {
		rc.set(name, familySum(cp.reg, family))
	}
	return nil
}
