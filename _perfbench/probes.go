package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/rmt"
)

// Layer probes: isolated, repeated calls into one layer's public
// functions, timed and allocation-counted from outside. Each runs in the
// traced run of the workload whose end-to-end metrics the layer moves.

const probeRepeats = 5

// timed runs fn and returns its wall time and the heap allocations
// (count and bytes) made while it ran.
func timed(fn func() error) (d time.Duration, mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err = fn()
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// facadeSpec is the probe configuration of one mode: the paper's
// defaults (PSR on for the redundant modes, Lock8, θ=0.5 for adaptive).
func facadeSpec(m rmt.Mode, programs ...string) rmt.Spec {
	s := rmt.Spec{Mode: m, Programs: programs, PSR: m != rmt.Base && m != rmt.Base2 && m != rmt.Lockstep}
	switch m {
	case rmt.Lockstep:
		s.CheckerLatency = 8
	case rmt.Adaptive:
		s.AdaptiveThreshold = 0.5
	}
	return s
}

// simSpec is the engine spec rmt.Run builds for s at these sizes. The
// facade and engine list their modes in the same order.
func simSpec(s rmt.Spec, budget, warmup uint64) sim.Spec {
	var mode sim.Mode
	for i, m := range rmt.Modes() {
		if m == s.Mode {
			mode = sim.Modes()[i]
		}
	}
	return sim.Spec{
		Mode: mode, Programs: s.Programs, Budget: budget, Warmup: warmup,
		Config: pipeline.DefaultConfig(), PSR: s.PSR, PerThreadSQ: s.PerThreadSQ,
		NoStoreComparison: s.NoStoreComparison, CheckerLatency: s.CheckerLatency,
		AdaptiveThreshold: s.AdaptiveThreshold, CheckpointInterval: s.CheckpointInterval,
	}
}

// stepSpecs are the stepping probe's machines: every mode on gcc.
func stepSpecs() []rmt.Spec {
	var out []rmt.Spec
	for _, m := range rmt.Modes() {
		out = append(out, facadeSpec(m, "gcc"))
	}
	return out
}

// buildProbes times sim.Build for every mode, and mem.NewHierarchy alone:
// the machine-build cost an rmtd cache miss pays before simulating.
func buildProbes(out map[string]float64) error {
	for _, s := range stepSpecs() {
		spec := simSpec(s, 4000, 2000)
		var us []float64
		for i := 0; i < probeRepeats; i++ {
			d, mallocs, bytes, err := timed(func() error { _, err := sim.Build(spec); return err })
			if err != nil {
				return fmt.Errorf("build %v: %w", s.Mode, err)
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
			if s.Mode == rmt.SRT {
				out["sim.build_allocs"] = float64(mallocs)
				out["sim.build_kb"] = float64(bytes) / 1024
			}
		}
		out["sim.build_us_p50."+s.Mode.String()] = median(us)
	}
	cfg := pipeline.DefaultConfig().Hier
	var us []float64
	for i := 0; i < probeRepeats; i++ {
		d, mallocs, _, _ := timed(func() error { mem.NewHierarchy(cfg, nil); return nil })
		us = append(us, float64(d.Nanoseconds())/1e3)
		out["mem.hierarchy_new_allocs"] = float64(mallocs)
	}
	out["mem.hierarchy_new_us"] = median(us)
	return nil
}

// steppingProbes times (*sim.Machine).Run per mode at figure sizes, and
// a functional vm.Thread.Run of the same kernel.
func steppingProbes(out map[string]float64) error {
	var runAllocs, mcycles float64
	for _, s := range stepSpecs() {
		var rates []float64
		for i := 0; i < 3; i++ {
			m, err := sim.Build(simSpec(s, figBudget, figWarmup))
			if err != nil {
				return err
			}
			var cycles uint64
			d, mallocs, _, err := timed(func() error {
				r, err := m.Run()
				if err == nil {
					cycles = r.Cycles
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("run %v: %w", s.Mode, err)
			}
			rates = append(rates, float64(cycles)/1e3/d.Seconds())
			runAllocs += float64(mallocs)
			mcycles += float64(cycles) / 1e6
		}
		out["sim.kcycles_per_s."+s.Mode.String()] = median(rates)
	}
	out["sim.run_allocs_per_mcycle"] = runAllocs / mcycles

	prog, err := progen.Build("gcc")
	if err != nil {
		return err
	}
	var rates []float64
	for i := 0; i < 3; i++ {
		memory := vm.NewMemory()
		vm.Load(prog, memory)
		t := vm.NewThread(0, prog, memory)
		var n uint64
		d, _, _, _ := timed(func() error { n = t.Run(2_000_000); return nil })
		rates = append(rates, float64(n)/1e3/d.Seconds())
	}
	out["vm.thread_kips"] = median(rates)
	return nil
}

var errStop = errors.New("probe stop")

// snapshotProbes stops SRT, CRT and SRTR machines mid-run through OnCycle
// and times Snapshot, RestoreState and sim.Restore on their state.
func snapshotProbes(out map[string]float64) error {
	specs := map[string]rmt.Spec{
		"srt":  facadeSpec(rmt.SRT, "compress"),
		"crt":  facadeSpec(rmt.CRT, "gcc", "swim"),
		"srtr": facadeSpec(rmt.SRTR, "gcc"),
	}
	for _, name := range snapModes {
		spec := simSpec(specs[name], campaignBudget, campaignWarmup)
		m, err := sim.Build(spec)
		if err != nil {
			return err
		}
		m.OnCycle = func(c uint64) error {
			if c == 12000 {
				return errStop
			}
			return nil
		}
		if _, err := m.Run(); !errors.Is(err, errStop) {
			return fmt.Errorf("%s probe run: %v", name, err)
		}
		var data []byte
		var enc, dec []float64
		for i := 0; i < probeRepeats; i++ {
			d, mallocs, _, err := timed(func() (err error) { data, err = m.Snapshot(); return err })
			if err != nil {
				return err
			}
			enc = append(enc, float64(d.Nanoseconds())/1e6)
			out["snap.encode_allocs"] = float64(mallocs)
		}
		fresh, err := sim.Build(spec)
		if err != nil {
			return err
		}
		for i := 0; i < probeRepeats; i++ {
			d, mallocs, _, err := timed(func() error { return fresh.RestoreState(data) })
			if err != nil {
				return err
			}
			dec = append(dec, float64(d.Nanoseconds())/1e6)
			out["snap.restore_allocs"] = float64(mallocs)
		}
		if _, err := sim.Restore(spec, data); err != nil {
			return err
		}
		out["snap.encode_ms."+name] = median(enc)
		out["snap.restore_ms."+name] = median(dec)
		out["snap.bytes."+name] = float64(len(data))
	}
	return nil
}

// srtrOverSRT is the fault-free wall-time ratio of SRTR to SRT on gcc at
// campaign sizes: what SRTR's checkpoint captures cost.
func srtrOverSRT(ctx context.Context) (float64, error) {
	walls := map[rmt.Mode][]float64{}
	for i := 0; i < 3; i++ {
		for _, m := range []rmt.Mode{rmt.SRT, rmt.SRTR} {
			d, _, _, err := timed(func() error {
				_, err := rmt.Run(ctx, facadeSpec(m, "gcc"), rmt.WithBudget(campaignBudget), rmt.WithWarmup(campaignWarmup))
				return err
			})
			if err != nil {
				return 0, err
			}
			walls[m] = append(walls[m], d.Seconds())
		}
	}
	return median(walls[rmt.SRTR]) / median(walls[rmt.SRT]), nil
}

// modelCounts sums the deterministic model counters of rmt.WithMetrics
// over fault-free runs of specs: the simulated events host time is spent
// on.
func modelCounts(specs []rmt.Spec, budget, warmup uint64, out map[string]float64) error {
	series := map[string]string{
		"ctx.committed":          "model.committed",
		"ctx.dcache_misses":      "model.dcache_misses",
		"ctx.icache_misses":      "model.icache_misses",
		"ctx.branch_mispredicts": "model.branch_mispredicts",
		"lvq.pushes":             "model.lvq_pushes",
		"lpq.pushes":             "model.lpq_pushes",
		"cmp.comparisons":        "model.store_compares",
	}
	for _, s := range specs {
		res, err := rmt.Run(context.Background(), s, rmt.WithBudget(budget), rmt.WithWarmup(warmup), rmt.WithMetrics())
		if err != nil {
			return err
		}
		var snap struct {
			Cycle   uint64
			Metrics []struct {
				Name    string
				Counter uint64
			}
		}
		if err := json.Unmarshal(res.MetricsJSON, &snap); err != nil {
			return fmt.Errorf("metrics json: %w", err)
		}
		out["model.simcycles"] += float64(snap.Cycle)
		for _, m := range snap.Metrics {
			if name, ok := series[m.Name]; ok {
				out[name] += float64(m.Counter)
			}
		}
	}
	return nil
}
