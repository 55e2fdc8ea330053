package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark's own code around each call; the program under
// test carries no instrumentation of its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil or disabled tracer records nothing and costs one branch.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when tracing is
// off, which end ignores).
func (t *tracer) begin(parent int, layer, name string) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, layer, name string, f func() error) error {
	id := t.begin(parent, layer, name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns, per layer, the summed self time of its spans under
// the given roots (a span's duration minus the part of it its children
// cover), and the summed duration of those roots. Every root's subtree is
// partitioned exactly, so the layers' self times add up to the roots'
// time.
func (t *tracer) selfTimes(roots []int) (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]time.Duration)
	var total time.Duration
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		kids := children[id]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			ivs = append(ivs, [2]int64{t.spans[k].Start, t.spans[k].End})
		}
		self[s.Layer] += time.Duration(s.End - s.Start - covered(ivs, s.Start, s.End))
		for _, k := range kids {
			walk(k)
		}
	}
	for _, r := range roots {
		total += time.Duration(t.spans[r].End - t.spans[r].Start)
		walk(r)
	}
	return self, total
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		sum += curE - curS
	}
	return sum
}

// sumByName totals the duration of every span whose name matches.
func (t *tracer) sumByName(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// rootsNamed lists the ids of root spans with the given name prefix.
func (t *tracer) rootsNamed(prefix string) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []int
	for _, s := range t.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, prefix) {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// write stores every span as one JSON document under dir.
func (t *tracer) write(dir, file string) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}
