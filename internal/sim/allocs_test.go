package sim

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/program"
)

// TestPoolDisabledIsCycleIdentical diffs full simulations with instruction
// recycling on and off, in every redundancy mode: the pool is pure
// mechanics, so cycle counts and logical IPC must match exactly, and the
// pooled machine's architectural state must still match a functional replay
// (the metamorphic oracle).
func TestPoolDisabledIsCycleIdentical(t *testing.T) {
	cases := []struct {
		mode  Mode
		progs []string
	}{
		{ModeBase, []string{"gcc"}},
		{ModeSRT, []string{"gcc"}},
		{ModeCRT, []string{"gcc", "ijpeg"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mode.String(), func(t *testing.T) {
			t.Parallel()
			run := func(disablePool bool) *Machine {
				cfg := pipeline.DefaultConfig()
				cfg.DisableInstPool = disablePool
				m, err := Build(Spec{
					Mode:     tc.mode,
					Programs: tc.progs,
					Budget:   1500,
					Warmup:   500,
					Config:   cfg,
					PSR:      true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return m
			}
			pooled, unpooled := run(false), run(true)
			if pooled.Cycles != unpooled.Cycles {
				t.Errorf("cycles: pooled %d, unpooled %d", pooled.Cycles, unpooled.Cycles)
			}
			for i := range pooled.Leads {
				p, u := pooled.Leads[i], unpooled.Leads[i]
				if p.Committed() != u.Committed() {
					t.Errorf("lead %d committed: pooled %d, unpooled %d", i, p.Committed(), u.Committed())
				}
				if p.Arch.Seq != u.Arch.Seq {
					t.Errorf("lead %d seq: pooled %d, unpooled %d", i, p.Arch.Seq, u.Arch.Seq)
				}
				checkCopyAgainstReference(t, tc.mode.String()+"/pooled", tc.progs[i], p)
			}
			checkPairsClean(t, tc.mode.String()+"/pooled", pooled)
		})
	}
}

// TestSteadyStateAllocs is the tentpole's gate: once the pipeline is warm
// (pool filled, ring buffers and comparator slots at their high-water
// marks), simulating a cycle must allocate nothing, in every machine
// organisation.
func TestSteadyStateAllocs(t *testing.T) {
	if program.MustBuild("gcc") == nil {
		t.Fatal("gcc kernel missing")
	}
	cases := []struct {
		name  string
		mode  Mode
		progs []string
	}{
		{"base", ModeBase, []string{"gcc"}},
		{"srt", ModeSRT, []string{"gcc"}},
		{"crt", ModeCRT, []string{"gcc", "ijpeg"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, err := Build(Spec{
				Mode:     tc.mode,
				Programs: tc.progs,
				Budget:   50_000_000, // far beyond the measured window: fetch never halts
				Config:   pipeline.DefaultConfig(),
				PSR:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: fill the pool, touch the kernels' working-set pages,
			// and let every slot array reach its high-water mark.
			lead := m.Leads[0]
			for lead.Committed() < 30_000 {
				for _, co := range m.Cores {
					co.Step()
				}
			}
			allocs := testing.AllocsPerRun(3000, func() {
				for _, co := range m.Cores {
					co.Step()
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocations per simulated cycle after warmup, want 0", tc.name, allocs)
			}
		})
	}
}

// allocCeilingSpec is the machine the build and run allocation ceilings
// measure: SRT on gcc at the campaign engine's 5k warmup / 20k budget.
func allocCeilingSpec() Spec {
	return Spec{
		Mode:     ModeSRT,
		Programs: []string{"gcc"},
		Budget:   20_000,
		Warmup:   5_000,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}
}

// TestBuildAllocs caps the allocations of building a machine. Cache lines
// live in one array per cache, so the count must not grow with the set
// count: one slice per set of the 6,144-set L2 made it 7,443; 271 measured.
func TestBuildAllocs(t *testing.T) {
	const ceiling = 1_000
	spec := allocCeilingSpec()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Build(SRT gcc): %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestBuildRunAllocs caps the allocations of building a machine and
// running it to its budget. Overlay words live in one slab per overlay, so
// storing to a new word must not allocate: a heap record per word and one
// slice per cache set made it about 9,900; 814 measured, ceiling ~1.5x.
func TestBuildRunAllocs(t *testing.T) {
	const ceiling = 1_200
	spec := allocCeilingSpec()
	allocs := testing.AllocsPerRun(3, func() {
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Build+Run(SRT gcc, 5k/20k): %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
