package testbed

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/availability"
	"repro/internal/trace"
)

// EventSink consumes the event stream of a sharded testbed run. RunSharded
// calls Machine exactly once per machine, in increasing id order, with that
// machine's events sorted by start time — concatenated, the calls form the
// same (machine, start, end)-ordered stream Trace.Sort produces — and
// ShardDone after the last machine of each shard, which is where file-
// backed sinks rotate their output. Calls are never concurrent.
type EventSink interface {
	// Machine receives one machine's unavailability events. The slice is
	// owned by the sink afterwards.
	Machine(id trace.MachineID, events []trace.Event) error
	// ShardDone marks the end of the shard covering machines [first, first+n).
	ShardDone(first trace.MachineID, n int) error
}

// RunSharded simulates the testbed in machine chunks of shardSize,
// streaming each shard's events to sink as the shard completes. Within a
// shard, machines are simulated concurrently (bounded by cfg.Parallelism),
// but only one shard is resident at a time, so peak memory is O(shard),
// not O(fleet) — the property that turns "1,000 machines x 1 year" from an
// OOM into a routine run. Per-machine simulations depend only on (cfg, id),
// and the sink sees machines in id order, so a fixed seed produces exactly
// the event stream of the in-memory Run path regardless of shard size or
// parallelism; the shard equivalence tests pin this byte for byte.
func RunSharded(cfg Config, shardSize int, sink EventSink) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	return runShards(cfg, shardSize, func(id trace.MachineID, evs []trace.Event, _ *availability.TimeInState) error {
		return sink.Machine(id, evs)
	}, sink.ShardDone)
}

// runShards is the testbed's one worker pool over runMachine, behind both
// RunSharded and RunWithOccupancy. It simulates cfg's machines in shards
// of shardSize (all at once when shardSize <= 0), a shard's machines
// concurrently (bounded by cfg.Parallelism), and hands each machine's
// events and time-in-state accounting to emit in increasing id order, then
// calls done (when non-nil) for the shard. Only one shard's results are
// resident at a time.
func runShards(cfg Config, shardSize int, emit func(trace.MachineID, []trace.Event, *availability.TimeInState) error, done func(first trace.MachineID, n int) error) error {
	if shardSize <= 0 {
		shardSize = cfg.Machines
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > shardSize {
		workers = shardSize
	}

	type machine struct {
		events []trace.Event
		timing *availability.TimeInState
		err    error
	}
	results := make([]machine, shardSize)
	for first := 0; first < cfg.Machines; first += shardSize {
		n := shardSize
		if first+n > cfg.Machines {
			n = cfg.Machines - first
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers && w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					r := &results[i]
					r.events, r.timing, r.err = runMachine(cfg, trace.MachineID(first+i))
				}
			}()
		}
		for i := 0; i < n; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		for i := 0; i < n; i++ {
			if results[i].err != nil {
				return fmt.Errorf("testbed: machine %d: %w", first+i, results[i].err)
			}
		}
		for i := 0; i < n; i++ {
			if err := emit(trace.MachineID(first+i), results[i].events, results[i].timing); err != nil {
				return err
			}
			results[i] = machine{}
		}
		if done != nil {
			if err := done(trace.MachineID(first), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// SinkHeader returns the trace metadata a sink needs to frame the streamed
// events (codec headers, analyzer construction) for a sharded run of cfg.
func SinkHeader(cfg Config) trace.Header {
	cfg = cfg.withDefaults()
	return trace.Header{
		Span:     spanOf(cfg),
		Calendar: calendarOf(cfg),
		Machines: cfg.Machines,
	}
}

// CollectSink gathers a sharded run back into one in-memory Trace — the
// oracle the equivalence tests compare against Run, and a convenience for
// fleet sizes that still fit in memory.
type CollectSink struct {
	Trace *trace.Trace
}

// NewCollectSink prepares a sink whose Trace matches Run's output for cfg.
func NewCollectSink(cfg Config) *CollectSink {
	h := SinkHeader(cfg)
	return &CollectSink{Trace: trace.New(h.Span, h.Calendar, h.Machines)}
}

// Machine implements EventSink.
func (s *CollectSink) Machine(_ trace.MachineID, events []trace.Event) error {
	s.Trace.Events = append(s.Trace.Events, events...)
	return nil
}

// ShardDone implements EventSink.
func (s *CollectSink) ShardDone(trace.MachineID, int) error { return nil }

// AnalyzerSink feeds a sharded run straight into a one-pass StreamAnalyzer,
// producing Table 2 and the Figure 6/7 inputs without ever materializing
// the fleet's events.
type AnalyzerSink struct {
	Analyzer *trace.StreamAnalyzer
}

// NewAnalyzerSink prepares an analyzer matching cfg's span and fleet.
func NewAnalyzerSink(cfg Config) *AnalyzerSink {
	return &AnalyzerSink{Analyzer: trace.NewStreamAnalyzerFor(SinkHeader(cfg))}
}

// Machine implements EventSink.
func (s *AnalyzerSink) Machine(_ trace.MachineID, events []trace.Event) error {
	for _, e := range events {
		if err := s.Analyzer.Observe(e); err != nil {
			return err
		}
	}
	return nil
}

// ShardDone implements EventSink.
func (s *AnalyzerSink) ShardDone(trace.MachineID, int) error { return nil }

// Finish closes the analyzer; call after RunSharded returns.
func (s *AnalyzerSink) Finish() *trace.StreamAnalyzer {
	s.Analyzer.Finish()
	return s.Analyzer
}

// EncoderSink streams a sharded run into binary codec writers, one per
// shard, via a caller-supplied opener (typically one file per shard). Each
// shard file carries the full fleet header, so a MergeReader over the
// files reconstructs the fleet stream.
type EncoderSink struct {
	header trace.Header
	open   func(shard int) (io.WriteCloser, error)
	enc    *trace.Encoder
	cur    io.WriteCloser
	shard  int
}

// NewEncoderSink builds a sink writing one codec stream per shard. The
// opener receives the zero-based shard number.
func NewEncoderSink(cfg Config, open func(shard int) (io.WriteCloser, error)) *EncoderSink {
	return &EncoderSink{header: SinkHeader(cfg), open: open}
}

// openShard starts the codec stream for the current shard.
func (s *EncoderSink) openShard() error {
	w, err := s.open(s.shard)
	if err != nil {
		return err
	}
	enc, err := trace.NewEncoder(w, s.header)
	if err != nil {
		w.Close()
		return err
	}
	s.cur, s.enc = w, enc
	return nil
}

// Machine implements EventSink.
func (s *EncoderSink) Machine(_ trace.MachineID, events []trace.Event) error {
	if s.enc == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := s.enc.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// ShardDone implements EventSink: it closes the shard's codec stream. A
// shard with machines but no events still gets a valid (empty) stream so
// readers see every shard file.
func (s *EncoderSink) ShardDone(trace.MachineID, int) error {
	if s.enc == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	err := s.enc.Close()
	if cerr := s.cur.Close(); err == nil {
		err = cerr
	}
	s.enc, s.cur = nil, nil
	s.shard++
	return err
}

// EncoderSinkV2 streams a sharded run into v2 columnar block files, one per
// shard. Each file carries the full fleet header plus its shard's machine
// coverage [first, first+n) in the block directory, which is exactly what
// AnalyzeBlockFiles needs to chunk the files for the parallel analyzer —
// and what lets it credit each shard's idle machines without consulting the
// others.
type EncoderSinkV2 struct {
	header trace.Header
	opts   *trace.BlockWriterOptions
	open   func(shard int) (io.WriteCloser, error)
	bw     *trace.BlockWriter
	cur    io.WriteCloser
	shard  int
}

// NewEncoderSinkV2 builds a sink writing one block-columnar file per shard.
// opts may be nil for defaults (auto compression, default block size).
func NewEncoderSinkV2(cfg Config, opts *trace.BlockWriterOptions, open func(shard int) (io.WriteCloser, error)) *EncoderSinkV2 {
	return &EncoderSinkV2{header: SinkHeader(cfg), opts: opts, open: open}
}

func (s *EncoderSinkV2) openShard() error {
	w, err := s.open(s.shard)
	if err != nil {
		return err
	}
	bw, err := trace.NewBlockWriter(w, s.header, s.opts)
	if err != nil {
		w.Close()
		return err
	}
	s.cur, s.bw = w, bw
	return nil
}

// Machine implements EventSink.
func (s *EncoderSinkV2) Machine(_ trace.MachineID, events []trace.Event) error {
	if s.bw == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := s.bw.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// ShardDone implements EventSink: it stamps the shard's machine coverage
// into the directory and closes the file. Empty shards still produce a
// valid (blockless) file so readers see every shard.
func (s *EncoderSinkV2) ShardDone(first trace.MachineID, n int) error {
	if s.bw == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	s.bw.SetCoverage(first, first+trace.MachineID(n))
	err := s.bw.Close()
	if cerr := s.cur.Close(); err == nil {
		err = cerr
	}
	s.bw, s.cur = nil, nil
	s.shard++
	return err
}
