package ishare

import (
	"testing"
	"time"
)

func TestBrokerPicksLeastLoadedNode(t *testing.T) {
	reg := startRegistry(t, time.Second)
	idle := startNode(t, NodeConfig{Name: "idle", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	busy := startNode(t, NodeConfig{Name: "busy", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.45})
	over := startNode(t, NodeConfig{Name: "over", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.95})

	b := NewBroker(reg.Addr())
	// Let each node's detector see a few samples so its state reflects
	// the sustained load (info advances the machine per call), then wait
	// for the heartbeats that carry those states to the registry.
	c := &Client{}
	last := map[*Node]*NodeStatus{}
	for i := 0; i < 15; i++ {
		for _, n := range []*Node{over, busy, idle} {
			st, err := c.Info(ctx, n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			last[n] = st
		}
	}
	for n, st := range last {
		awaitDigest(t, reg, n.cfg.Name, st)
	}

	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Node.Name != "idle" {
		t.Fatalf("best candidate = %s (%s), want idle", cands[0].Node.Name, cands[0].State)
	}
	// The overloaded node must not appear once it has latched S3.
	for _, cand := range cands {
		if cand.Node.Name == "over" && cand.Score >= 0 && cand.State[0:2] == "S3" {
			t.Fatalf("overloaded node offered as candidate: %+v", cand)
		}
	}

	res, node, err := b.SubmitBest(ctx, JobSpec{Name: "brokered", CPUSeconds: 60, RSSMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "idle" {
		t.Errorf("job placed on %s, want idle", node.Name)
	}
	if !res.Completed {
		t.Errorf("brokered job should complete on the idle node: %+v", res)
	}
}

func TestBrokerNoResources(t *testing.T) {
	reg := startRegistry(t, time.Second)
	b := NewBroker(reg.Addr())
	if _, _, err := b.SubmitBest(ctx, JobSpec{Name: "j", CPUSeconds: 10}); err == nil {
		t.Error("empty registry should fail submission")
	}
}

func TestRankState(t *testing.T) {
	tests := []struct {
		state string
		want  int
	}{
		{"S1(full)", 0},
		{"S2(lowest-priority)", 1},
		{"S3(cpu-unavail)", -1},
		{"S4(mem-thrash)", -1},
		{"S5(machine-unavail)", -1},
		{"garbage", -1},
	}
	for _, tt := range tests {
		if got := rankState(tt.state); got != tt.want {
			t.Errorf("rankState(%q) = %d, want %d", tt.state, got, tt.want)
		}
	}
}
