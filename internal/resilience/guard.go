package resilience

import (
	"context"

	"pdp/internal/trace"
)

// DefaultGuardEvery is the cancellation-check stride of GuardGenerator in
// accesses: frequent enough that a cancelled multi-million-access window
// stops within milliseconds, rare enough to stay off the hot path.
const DefaultGuardEvery = 4096

// guardedGen wraps a trace.Generator with periodic context checks and
// heartbeat reporting.
type guardedGen struct {
	g     trace.Generator
	ctx   context.Context
	hb    *Heartbeat
	every int
	left  int   // accesses until the next check
	n     int64 // accesses generated up to the last check
}

// GuardGenerator wraps g so that every `every` generated accesses (<= 0
// selects DefaultGuardEvery) the run's context is checked and a heartbeat
// is reported. When the context is cancelled the generator aborts the run
// by panicking with an internal sentinel that Supervisor.Run converts back
// into the context's error — the cooperative-cancellation seam that lets
// watchdog timeouts and SIGINT interrupt access loops deep inside the
// experiments runner without threading a context through every layer.
// Guarded generators must therefore run under Supervisor.Run.
func GuardGenerator(ctx context.Context, g trace.Generator, every int, hb *Heartbeat) trace.Generator {
	if ctx == nil {
		return g
	}
	if every <= 0 {
		every = DefaultGuardEvery
	}
	return &guardedGen{g: g, ctx: ctx, hb: hb, every: every, left: every}
}

// Name implements trace.Generator.
func (g *guardedGen) Name() string { return g.g.Name() }

// Reset implements trace.Generator.
func (g *guardedGen) Reset() { g.g.Reset() }

// Next implements trace.Generator.
func (g *guardedGen) Next() trace.Access {
	if g.left--; g.left == 0 {
		g.left = g.every
		g.n += int64(g.every)
		if err := g.ctx.Err(); err != nil {
			panic(cancelAbort{err: err})
		}
		g.hb.Beat(g.n)
	}
	return g.g.Next()
}
