package sim

import (
	"runtime"
	"testing"

	"repro/internal/pipeline"
)

// TestSRTRFaultFreeRuns checks the recovery organisation completes a
// fault-free run with zero recoveries: the segmented checkpoint loop must
// be invisible when nothing goes wrong.
func TestSRTRFaultFreeRuns(t *testing.T) {
	m, err := Build(Spec{
		Mode: ModeSRTR, Programs: []string{"gcc"},
		Budget: 3000, Warmup: 1000,
		Config: pipeline.DefaultConfig(), PSR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Pairs[0].RVQ == nil {
		t.Fatal("SRTR machine built without an RVQ")
	}
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if m.Recoveries != 0 || m.RecoveryCycles != 0 {
		t.Errorf("fault-free run recovered: %d rollbacks, %d cycles", m.Recoveries, m.RecoveryCycles)
	}
	if got := m.Pairs[0].RVQ.Mismatches.Value(); got != 0 {
		t.Errorf("fault-free RVQ mismatches = %d", got)
	}
	if m.Pairs[0].RVQ.Pushes.Value() == 0 {
		t.Error("RVQ saw no traffic")
	}
}

// TestSRTRFinishesOnCheckpointBoundary: a run whose budgets complete on a
// checkpoint boundary ends there. Short intervals put every completion on
// a boundary; the fault-free cycle count must still be SRT's, not one
// more (or, at interval 1, the whole cycle cap).
func TestSRTRFinishesOnCheckpointBoundary(t *testing.T) {
	run := func(mode Mode, interval uint64) uint64 {
		m, err := Build(Spec{Mode: mode, Programs: []string{"gcc"}, Budget: 200,
			Config: pipeline.DefaultConfig(), PSR: true, CheckpointInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.Cycles
	}
	want := run(ModeSRT, 0)
	for _, iv := range []uint64{2, 1} {
		if got := run(ModeSRTR, iv); got != want {
			t.Fatalf("SRTR at interval %d ran %d cycles, SRT %d", iv, got, want)
		}
	}
}

// TestSRTRStallBoundsCheckpoints: while the pipeline makes no progress
// (here a direct-mapped 64-byte cache deadlocks the pair until the
// watchdog fires) every capture waits on the same sequence numbers, so
// the run must hold one pending checkpoint, not one per interval.
func TestSRTRStallBoundsCheckpoints(t *testing.T) {
	spec := Spec{Mode: ModeSRTR, Programs: []string{"go"}, Budget: 200,
		Config: pipeline.DefaultConfig(), PSR: true, CheckpointInterval: 10, MaxRecoveries: 1}
	h := &spec.Config.Hier
	h.L1ISize, h.L1DSize, h.L2Size = 64, 64, 128
	h.L1IWays, h.L1DWays, h.L2Ways = 1, 1, 1
	spec.Config.WatchdogCycles = 4000
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base, peak := live(), uint64(0)
	m.OnCycle = func(cycle uint64) error {
		if cycle%1000 == 999 {
			peak = max(peak, live())
		}
		return nil
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("stalled run reported no deadlock")
	}
	// One pending snapshot per 10-cycle interval would hold ~400 of
	// ~0.4 MB each by the time the watchdog fires.
	if grew := int64(peak) - int64(base); grew > 32<<20 {
		t.Errorf("live heap grew %d MB during a stalled run", grew>>20)
	}
}

// TestSRTRFaultFreeMatchesSRTArch checks the two organisations commit the
// same architectural outcome: the RVQ changes timing, never values.
func TestSRTRFaultFreeMatchesSRTArch(t *testing.T) {
	digest := func(mode Mode) [32]byte {
		m, err := Build(Spec{
			Mode: mode, Programs: []string{"li"},
			Budget: 2000, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ArchDigest()
	}
	if digest(ModeSRT) != digest(ModeSRTR) {
		t.Error("SRTR fault-free architectural state diverges from SRT")
	}
}

// TestAdaptiveZeroThresholdIsSRT checks θ = 0 disables gating entirely:
// the machine must be cycle-identical to plain SRT, anchoring the
// coverage/slowdown frontier at the SRT point.
func TestAdaptiveZeroThresholdIsSRT(t *testing.T) {
	run := func(mode Mode, theta float64) uint64 {
		m, err := Build(Spec{
			Mode: mode, Programs: []string{"compress"},
			Budget: 2000, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
			AdaptiveThreshold: theta,
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.Cycles
	}
	if srt, ad := run(ModeSRT, 0), run(ModeAdaptive, 0); srt != ad {
		t.Errorf("adaptive θ=0 cycles = %d, SRT = %d", ad, srt)
	}
}

// TestAdaptiveGatingRuns checks a gated machine completes, actually
// excludes some instructions from the sphere, and commits the same
// architectural outcome as SRT (fault-free partial redundancy changes
// protection, not semantics).
func TestAdaptiveGatingRuns(t *testing.T) {
	srt, err := Build(Spec{
		Mode: ModeSRT, Programs: []string{"gcc"},
		Budget: 2000, Warmup: 500,
		Config: pipeline.DefaultConfig(), PSR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srt.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := Build(Spec{
		Mode: ModeAdaptive, Programs: []string{"gcc"},
		Budget: 2000, Warmup: 500,
		Config: pipeline.DefaultConfig(), PSR: true,
		AdaptiveThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pair := m.Pairs[0]
	if !pair.Gated() {
		t.Fatal("θ=0.5 built an ungated pair")
	}
	unprotected := 0
	for _, p := range pair.Protect {
		if !p {
			unprotected++
		}
	}
	if unprotected == 0 {
		t.Fatal("θ=0.5 protects every pc; gating untested")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if srt.ArchDigest() != m.ArchDigest() {
		t.Error("adaptive fault-free architectural state diverges from SRT")
	}
}

// TestSRTRCheckpointIntervalSweep checks the recovery loop is stable
// across checkpoint intervals, including ones that do not divide the
// fault engine's 1024-cycle grid.
func TestSRTRCheckpointIntervalSweep(t *testing.T) {
	for _, interval := range []uint64{256, 512, 1024} {
		m, err := Build(Spec{
			Mode: ModeSRTR, Programs: []string{"compress"},
			Budget: 1500, Warmup: 500,
			Config: pipeline.DefaultConfig(), PSR: true,
			CheckpointInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Errorf("interval %d: %v", interval, err)
		}
	}
}
