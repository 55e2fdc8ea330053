package ishare

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSubmissions fires several jobs at one node in parallel;
// the node must serialize them on its single simulated machine without
// races (run with -race) and complete every one.
func TestConcurrentSubmissions(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "serial", HostLoad: 0.05})
	c := &Client{}
	const jobs = 6
	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Submit(ctx, node.Addr(), JobSpec{
				Name: "par", CPUSeconds: 30, RSSMB: 32,
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !results[i].Completed {
			t.Errorf("job %d did not complete: %+v", i, results[i])
		}
	}
}

// TestConcurrentInfoAndSubmit interleaves status queries with a running
// submission.
func TestConcurrentInfoAndSubmit(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "mix", HostLoad: 0.1})
	c := &Client{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "long", CPUSeconds: 120, RSSMB: 32}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := c.Info(ctx, node.Addr()); err != nil {
			t.Fatalf("info during submit: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-done
}

// TestConcurrentPlacementsPastDeadNode races placements that all meet the
// same dead node (run with -race): each completes on the live node, and
// once the failed dial is recorded, discovery leaves the dead node out.
func TestConcurrentPlacementsPastDeadNode(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	startNode(t, NodeConfig{Name: "live", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	dead := startNode(t, NodeConfig{Name: "dead", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	dead.Close()

	b := &Broker{Client: fastClient(reg.Addr()), CacheTTL: time.Minute}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, onNode, err := b.SubmitBest(ctx, JobSpec{Name: fmt.Sprintf("j%d", w), CPUSeconds: 10})
			if err != nil || onNode.Name != "live" {
				t.Errorf("worker %d: placed on %q, err %v; want live", w, onNode.Name, err)
			}
		}(w)
	}
	wg.Wait()
	if m := b.Metrics(); m.DialFailures < 1 || m.DialFailures > workers {
		t.Errorf("metrics = %+v, want 1..%d dial failures", m, workers)
	}
	cands, err := b.Candidates(ctx)
	if err != nil || len(cands) != 1 || cands[0].Node.Name != "live" {
		t.Fatalf("candidates = %+v, %v; want only live", cands, err)
	}
}
