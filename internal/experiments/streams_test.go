package experiments

import (
	"testing"

	"pdp/internal/parallel"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// TestRowStreamReplaysLiveStream checks, for every model, that a row's
// replayed stream is the live generator's stream access for access: over
// the recorded Warmup(n)+n window, 10k accesses past it (the live
// continuation), and the same again after Reset.
func TestRowStreamReplaysLiveStream(t *testing.T) {
	const n, beyond = 20_000, 10_000
	cfg := Config{Seed: 42}
	total := Warmup(n) + n + beyond
	for _, b := range append(workload.All(), workload.Phased()...) {
		s := newRowStream(cfg, b, n)
		got := s.bench().Generator(LLCSets, 1, cfg.Seed)
		want := b.Generator(LLCSets, 1, cfg.Seed)
		if got.Name() != want.Name() {
			t.Fatalf("%s: replay named %q, live %q", b.Name, got.Name(), want.Name())
		}
		if len(s.accs) != Warmup(n)+n {
			t.Fatalf("%s: recorded %d accesses, want %d", b.Name, len(s.accs), Warmup(n)+n)
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < total; i++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("%s pass %d access %d: replay %+v, live %+v", b.Name, pass, i, g, w)
				}
			}
			got.Reset()
			want.Reset()
		}
	}
}

// TestRowStreamFallsThroughToLive checks that a generator for any other
// geometry, base or seed is the live model's and records nothing.
func TestRowStreamFallsThroughToLive(t *testing.T) {
	b, _ := workload.ByName("403.gcc")
	cfg := Config{Seed: 42}
	s := newRowStream(cfg, b, 1000)
	for _, k := range []struct {
		sets       int
		base, seed uint64
	}{{LLCSets / 2, 1, 42}, {LLCSets, 2, 42}, {LLCSets, 1, 43}} {
		got := s.replay().Generator(k.sets, k.base, k.seed)
		want := b.Generator(k.sets, k.base, k.seed)
		for i := 0; i < 1000; i++ {
			if g, w := got.Next(), want.Next(); g != w {
				t.Fatalf("%+v access %d: %+v, live %+v", k, i, g, w)
			}
		}
	}
	if s.accs != nil {
		t.Fatal("a fall-through generator must not record the row")
	}
}

// TestRowStreamsDropAfterLastColumn runs a Grid whose columns share their
// row's recording across workers and checks that every row drops its
// recording once its last column has finished.
func TestRowStreamsDropAfterLastColumn(t *testing.T) {
	bs := workload.Suite()[:3]
	const cols, n = 4, 5_000
	cfg := Config{Seed: 42}
	streams := newRowStreams(cfg, bs, n, cols)
	grid, err := parallel.Grid(2, len(bs), cols, func(r, c int) (trace.Access, error) {
		defer streams[r].done()
		g := streams[r].bench().Generator(LLCSets, 1, cfg.Seed)
		var last trace.Access
		for i := Warmup(n) + n; i > 0; i-- {
			last = g.Next()
		}
		return last, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range bs {
		if streams[r].accs != nil {
			t.Fatalf("%s: recording still held after its last column", b.Name)
		}
		g := b.Generator(LLCSets, 1, cfg.Seed)
		var want trace.Access
		for i := Warmup(n) + n; i > 0; i-- {
			want = g.Next()
		}
		for c, got := range grid[r] {
			if got != want {
				t.Fatalf("%s column %d ended on %+v, live model on %+v", b.Name, c, got, want)
			}
		}
	}
}
