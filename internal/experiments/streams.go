package experiments

import (
	"sync"
	"sync/atomic"

	"pdp/internal/resilience"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// rowStream is one experiment row's model stream. Every run of a row
// drives the same benchmark from the same (LLCSets, base 1, seed)
// generator, so the row records the raw stream once — Warmup(n)+n
// accesses, 32 bytes each — and replays it to each run, much as the
// paper feeds every policy the same fixed trace window.
//
// The replay is exact and unbounded: past the recording a run continues
// on a fresh live generator that has skipped the recorded prefix. A run
// that asks for another geometry, base or seed gets the live model.
//
// Runs of a row may share it across goroutines: the first run to build a
// generator records, under a sync.Once. A row shared by a fixed number of
// runs (a Grid row) drops its recording when the last run calls done, so
// live recordings are bounded by the rows in flight.
type rowStream struct {
	cfg  Config
	b    workload.Benchmark
	n    int
	once sync.Once
	name string
	accs []trace.Access
	runs atomic.Int64 // runs yet to call done
}

// newRowStream prepares b's stream for runs measuring windows of at most
// n accesses under cfg's seed. Nothing is recorded until a run needs it.
func newRowStream(cfg Config, b workload.Benchmark, n int) *rowStream {
	return &rowStream{cfg: cfg, b: b, n: n}
}

// newRowStreams prepares one stream per benchmark of a Grid in which each
// row runs cols columns; every column must call done when it finishes.
func newRowStreams(cfg Config, bs []workload.Benchmark, n, cols int) []*rowStream {
	out := make([]*rowStream, len(bs))
	for i, b := range bs {
		out[i] = newRowStream(cfg, b, n)
		out[i].runs.Store(int64(cols))
	}
	return out
}

// record generates the row's stream from the raw model. Under a context
// the recording is guarded so that it can be cancelled; it does not beat
// the heartbeat, which counts the runs' accesses only.
func (s *rowStream) record() {
	g := s.b.Generator(LLCSets, 1, s.cfg.Seed)
	s.name = g.Name()
	g = resilience.GuardGenerator(s.cfg.Ctx, g, 0, nil)
	accs := make([]trace.Access, Warmup(s.n)+s.n)
	for i := range accs {
		accs[i] = g.Next()
	}
	s.accs = accs
}

// replay returns the benchmark whose generator replays the recording,
// without the config's run instrumentation.
func (s *rowStream) replay() workload.Benchmark {
	b := s.b
	live := b.Build
	b.Build = func(sets int, base, seed uint64) trace.Generator {
		if sets != LLCSets || base != 1 || seed != s.cfg.Seed {
			return live(sets, base, seed)
		}
		s.once.Do(s.record)
		return &replayGen{name: s.name, accs: s.accs, live: func() trace.Generator {
			return live(sets, base, seed)
		}}
	}
	return b
}

// bench returns the benchmark a run of the row drives: the replay under
// the config's run instrumentation, so fault injection and the
// cancellation guard see each run's accesses exactly as with the live
// model.
func (s *rowStream) bench() workload.Benchmark { return s.cfg.Bench(s.replay()) }

// done marks one run of a Grid row finished; the last drops the recording.
func (s *rowStream) done() {
	if s.runs.Add(-1) == 0 {
		s.accs = nil
	}
}

// replayGen replays a recorded stream, then continues on the live model.
type replayGen struct {
	name string
	accs []trace.Access
	pos  int
	live func() trace.Generator
	rest trace.Generator // the live model past the recording
}

// Name implements trace.Generator.
func (g *replayGen) Name() string { return g.name }

// Reset implements trace.Generator.
func (g *replayGen) Reset() { g.pos, g.rest = 0, nil }

// Next implements trace.Generator.
func (g *replayGen) Next() trace.Access {
	if g.pos < len(g.accs) {
		a := g.accs[g.pos]
		g.pos++
		return a
	}
	if g.rest == nil {
		g.rest = g.live()
		for range g.accs {
			g.rest.Next()
		}
	}
	return g.rest.Next()
}
