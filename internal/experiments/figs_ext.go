package experiments

// Extension experiments beyond the paper's own evaluation:
//   - optgap: how much of Belady-OPT's headroom over DIP each policy
//     recovers (the paper cites Belady only as the unreachable reference);
//   - classpdp: the paper's Sec. 6.3 future-work proposal — per-PC-class
//     protecting distances — implemented and measured.

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/counter"
	"pdp/internal/cpu"
	"pdp/internal/cpusim"
	"pdp/internal/metrics"
	"pdp/internal/opt"
	"pdp/internal/parallel"
	"pdp/internal/rrip"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// OptGap measures each policy's recovered fraction of the OPT-over-DIP
// hit headroom: (hits(policy) - hits(DIP)) / (hits(OPT) - hits(DIP)).
func OptGap(cfg Config) error {
	header(cfg.Out, "optgap", "Fraction of Belady-OPT headroom over DIP recovered (extension)")
	recompute := uint64(cfg.Accesses / 8)
	if recompute < 4096 {
		recompute = 4096
	}
	specs := []PolicySpec{specDRRIP(1.0 / 32), specSDP(), specPDP(8, recompute)}
	suite := workload.Suite()
	type optRow struct {
		ost  opt.Stats
		base RunResult
		runs []RunResult
	}
	rowsP, err := parallel.Map(cfg.jobs(), len(suite), func(i int) (optRow, error) {
		stream := newRowStream(cfg, suite[i], cfg.Accesses)
		// Record the same access window OPT will consume.
		g := stream.replay().Generator(LLCSets, 1, cfg.Seed)
		for j := Warmup(cfg.Accesses); j > 0; j-- {
			g.Next()
		}
		accs := opt.Collect(g, cfg.Accesses)
		ost, err := opt.Simulate(accs, LLCSets, LLCWays, true)
		if err != nil {
			return optRow{}, err
		}
		b := stream.bench()
		row := optRow{ost: ost, base: RunSingle(b, specDIP(), cfg.Accesses, cfg.Seed)}
		for _, s := range specs {
			row.runs = append(row.runs, RunSingle(b, s, cfg.Accesses, cfg.Seed))
		}
		return row, nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDIP hit%\tOPT-B hit%\tDRRIP\tSDP\tPDP-8")
	rows := map[string][]float64{}
	for i, b := range suite {
		ost, base := rowsP[i].ost, rowsP[i].base
		head := float64(ost.Hits) - float64(base.Stats.Hits)
		// Benchmarks where DIP already sits at OPT (streaming,
		// LRU-friendly) have no headroom to recover; exclude them from the
		// averages rather than dividing by ~zero.
		meaningful := head >= 0.01*float64(cfg.Accesses)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f", b.Name,
			100*base.Stats.HitRate(), 100*ost.HitRate())
		for j, s := range specs {
			r := rowsP[i].runs[j]
			if !meaningful {
				fmt.Fprintf(tw, "\t(n/a)")
				continue
			}
			rec := (float64(r.Stats.Hits) - float64(base.Stats.Hits)) / head
			fmt.Fprintf(tw, "\t%s", fmtPct(rec))
			rows[s.Name] = append(rows[s.Name], rec)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "AVERAGE\t\t\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(rows["DRRIP"])),
		fmtPct(metrics.Mean(rows["SDP"])),
		fmtPct(metrics.Mean(rows["PDP-8"])))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(OPT-B = Belady's MIN with the optimal bypass rule; a 100% recovery equals OPT)")
	return nil
}

// specClassPDP builds the Sec. 6.3 classified PDP.
func specClassPDP(classes int, recompute uint64) PolicySpec {
	return PolicySpec{Name: fmt.Sprintf("PDP-C%d", classes), Bypass: true,
		New: func(s, w int, _ uint64) cache.Policy {
			return core.NewClassPDP(core.ClassConfig{
				Sets: s, Ways: w, Classes: classes, RecomputeEvery: recompute,
			})
		}}
}

// ClassPDPExp evaluates the paper's Sec. 6.3 proposal: per-PC-class
// protecting distances, against plain PDP and the PC-classifying policies
// the paper identifies as related (SDP's dead-block prediction, SHiP's
// signature-based insertion).
func ClassPDPExp(cfg Config) error {
	header(cfg.Out, "classpdp", "Per-PC-class PDP (paper Sec. 6.3 future work; IPC improvement over DIP)")
	recompute := uint64(cfg.Accesses / 8)
	if recompute < 4096 {
		recompute = 4096
	}
	ship := PolicySpec{Name: "SHiP", New: func(s, w int, _ uint64) cache.Policy {
		return rrip.NewSHiP(s, w)
	}}
	aip := PolicySpec{Name: "AIP", Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
		return counter.New(counter.Config{Sets: s, Ways: w, AllowBypass: true})
	}}
	specs := []PolicySpec{specSDP(), ship, aip, specPDP(8, recompute), specClassPDP(8, recompute)}
	suite := workload.Suite()
	// Column 0 is the DIP base, columns 1.. follow specs.
	streams := newRowStreams(cfg, suite, cfg.Accesses, 1+len(specs))
	grid, err := parallel.Grid(cfg.jobs(), len(suite), 1+len(specs), func(r, c int) (RunResult, error) {
		defer streams[r].done()
		if c == 0 {
			return RunSingle(streams[r].bench(), specDIP(), cfg.Accesses, cfg.Seed), nil
		}
		return RunSingle(streams[r].bench(), specs[c-1], cfg.Accesses, cfg.Seed), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tSDP\tSHiP\tAIP\tPDP-8\tPDP-C8")
	avg := map[string][]float64{}
	for i, b := range suite {
		base := grid[i][0]
		fmt.Fprintf(tw, "%s", b.Name)
		for j, s := range specs {
			imp := metrics.Improvement(grid[i][1+j].IPC, base.IPC)
			fmt.Fprintf(tw, "\t%s", fmtPct(imp))
			avg[s.Name] = append(avg[s.Name], imp)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(avg["SDP"])),
		fmtPct(metrics.Mean(avg["SHiP"])),
		fmtPct(metrics.Mean(avg["AIP"])),
		fmtPct(metrics.Mean(avg["PDP-8"])),
		fmtPct(metrics.Mean(avg["PDP-C8"])))
	return tw.Flush()
}

// Energy estimates the LLC + memory dynamic energy of each policy relative
// to DIP (extension; the paper's Sec. 6.2 argues bypass saves LLC write
// power). Misses dominate via memory energy, so the policies that win on
// hit rate win here too — bypass adds a further LLC-write saving.
func Energy(cfg Config) error {
	header(cfg.Out, "energy", "LLC+memory dynamic energy vs DIP (extension)")
	recompute := uint64(cfg.Accesses / 8)
	if recompute < 4096 {
		recompute = 4096
	}
	model := cpu.DefaultEnergy()
	specs := []PolicySpec{specDRRIP(1.0 / 32), specSDP(), specPDP(8, recompute)}
	suite := workload.Suite()
	streams := newRowStreams(cfg, suite, cfg.Accesses, 1+len(specs))
	grid, err := parallel.Grid(cfg.jobs(), len(suite), 1+len(specs), func(r, c int) (RunResult, error) {
		defer streams[r].done()
		if c == 0 {
			return RunSingle(streams[r].bench(), specDIP(), cfg.Accesses, cfg.Seed), nil
		}
		return RunSingle(streams[r].bench(), specs[c-1], cfg.Accesses, cfg.Seed), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDRRIP\tSDP\tPDP-8\t| PDP-8 LLC-write energy vs DIP")
	var avg = map[string][]float64{}
	var wAvg []float64
	for i, b := range suite {
		base := grid[i][0]
		be := model.Estimate(base.Stats.Hits, base.Stats.Inserts, base.Stats.Bypasses, base.Stats.Misses)
		fmt.Fprintf(tw, "%s", b.Name)
		var pdpWrite float64
		for j, s := range specs {
			r := grid[i][1+j]
			e := model.Estimate(r.Stats.Hits, r.Stats.Inserts, r.Stats.Bypasses, r.Stats.Misses)
			rel := metrics.Reduction(e.Total(), be.Total())
			fmt.Fprintf(tw, "\t%s", fmtPct(rel))
			avg[s.Name] = append(avg[s.Name], rel)
			if s.Name == "PDP-8" {
				pdpWrite = metrics.Reduction(e.WriteNJ, be.WriteNJ)
			}
		}
		fmt.Fprintf(tw, "\t%s\n", fmtPct(pdpWrite))
		wAvg = append(wAvg, pdpWrite)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(avg["DRRIP"])),
		fmtPct(metrics.Mean(avg["SDP"])),
		fmtPct(metrics.Mean(avg["PDP-8"])),
		fmtPct(metrics.Mean(wAvg)))
	return tw.Flush()
}

// runTimed drives a benchmark through the LLC while feeding the interval
// core simulator (MLP-aware) alongside the blocking analytic model.
func runTimed(b workload.Benchmark, spec PolicySpec, n int, seed uint64) (analytic, simulated float64, err error) {
	pol := spec.New(LLCSets, LLCWays, seed)
	c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays,
		LineSize: trace.LineSize, AllowBypass: spec.Bypass}, pol)
	g := b.Generator(LLCSets, 1, seed)
	for i := Warmup(n); i > 0; i-- {
		c.Access(g.Next())
	}
	c.Stats = cache.Stats{}

	cfg := cpusim.Default()
	core2, err := cpusim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	gap := 1000.0/b.APKI - 1
	if gap < 0 {
		gap = 0
	}
	carry := 0.0
	for i := 0; i < n; i++ {
		carry += gap
		whole := uint64(carry)
		carry -= float64(whole)
		core2.Advance(whole)
		r := c.Access(g.Next())
		if r.Hit {
			core2.Memory(cfg.LLCHitCycles)
		} else {
			core2.Memory(cfg.MemCycles)
		}
	}
	instr := cpu.Instructions(c.Stats.Accesses, b.APKI)
	analytic = cpu.Default().IPC(instr, c.Stats.Hits, c.Stats.Misses)
	simulated = core2.IPC()
	return analytic, simulated, nil
}

// Timing compares the blocking analytic core model against the MLP-aware
// interval simulator (extension): the paper's relative claims must be
// robust to the core model, i.e. the PDP-over-DIP improvement should keep
// its sign and rough magnitude under memory-level parallelism.
func Timing(cfg Config) error {
	header(cfg.Out, "timing", "Core-model robustness: PDP-8 IPC improvement over DIP under blocking vs MLP-aware timing (extension)")
	recompute := uint64(cfg.Accesses / 8)
	if recompute < 4096 {
		recompute = 4096
	}
	suite := workload.Suite()
	type timedRow struct {
		aDIP, sDIP, aPDP, sPDP float64
	}
	rows, err := parallel.Map(cfg.jobs(), len(suite), func(i int) (timedRow, error) {
		var row timedRow
		var err error
		b := newRowStream(cfg, suite[i], cfg.Accesses).replay()
		if row.aDIP, row.sDIP, err = runTimed(b, specDIP(), cfg.Accesses, cfg.Seed); err != nil {
			return row, err
		}
		row.aPDP, row.sPDP, err = runTimed(b, specPDP(8, recompute), cfg.Accesses, cfg.Seed)
		return row, err
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tblocking model\tinterval (MLP) model")
	var aAvg, sAvg []float64
	for i, b := range suite {
		ia := metrics.Improvement(rows[i].aPDP, rows[i].aDIP)
		is := metrics.Improvement(rows[i].sPDP, rows[i].sDIP)
		fmt.Fprintf(tw, "%s\t%s\t%s\n", b.Name, fmtPct(ia), fmtPct(is))
		aAvg = append(aAvg, ia)
		sAvg = append(sAvg, is)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\n", fmtPct(metrics.Mean(aAvg)), fmtPct(metrics.Mean(sAvg)))
	return tw.Flush()
}
