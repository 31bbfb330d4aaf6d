package fault

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestForkMatchesLegacy is the fork-on-fault engine's ground-truth check:
// over the same table the sharding-invariance test uses, the snapshot/replay
// engine must produce a summary byte-identical to the legacy
// build-everything-per-trial engine — every per-trial Result (outcome,
// detection latency, end cycle), every aggregate, at more than one
// parallelism.
func TestForkMatchesLegacy(t *testing.T) {
	small := func(mode sim.Mode, progs ...string) sim.Spec {
		s := faultSpec(mode, progs...)
		s.Budget, s.Warmup = 3000, 1000
		return s
	}
	adaptive := func(progs ...string) sim.Spec {
		s := small(sim.ModeAdaptive, progs...)
		s.AdaptiveThreshold = 0.5
		return s
	}
	cases := []struct {
		name string
		spec sim.Spec
		n    int
		seed uint64
	}{
		{"srt one program", small(sim.ModeSRT, "compress"), 6, 0xA11CE},
		{"srt two programs", small(sim.ModeSRT, "gcc", "swim"), 6, 42},
		{"crt two programs", small(sim.ModeCRT, "gcc", "swim"), 6, 0xBEEF},
		{"srtr one program", small(sim.ModeSRTR, "compress"), 6, 0xA11CE},
		{"srtr two programs", small(sim.ModeSRTR, "gcc", "swim"), 6, 42},
		{"adaptive one program", adaptive("compress"), 6, 0xA11CE},
		{"adaptive two programs", adaptive("gcc", "swim"), 6, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, err := CampaignLegacy(tc.spec, tc.n, tc.seed, CampaignOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			for _, workers := range []int{1, 4} {
				spec := tc.spec
				fork, err := CampaignParallel(spec, tc.n, tc.seed, CampaignOptions{Parallelism: workers})
				if err != nil {
					t.Fatalf("fork workers=%d: %v", workers, err)
				}
				if fork.Runs != legacy.Runs || fork.Detected != legacy.Detected ||
					fork.Masked != legacy.Masked || fork.NotFired != legacy.NotFired ||
					fork.Recovered != legacy.Recovered ||
					fork.UnprotectedSDC != legacy.UnprotectedSDC ||
					fork.MeanDetectionCycles != legacy.MeanDetectionCycles ||
					fork.MeanRecoveryCycles != legacy.MeanRecoveryCycles ||
					fork.TotalCycles != legacy.TotalCycles {
					t.Fatalf("workers=%d summary differs:\nfork:   %+v\nlegacy: %+v", workers, fork, legacy)
				}
				for i := range fork.Results {
					if fork.Results[i] != legacy.Results[i] {
						t.Fatalf("workers=%d trial %d: fork %+v, legacy %+v",
							workers, i, fork.Results[i], legacy.Results[i])
					}
				}
			}
		})
	}
}

// TestCampaignCancel: a Cancel callback returning an error aborts the
// campaign with that error (this is the context plumbing rmt.Campaign uses).
func TestCampaignCancel(t *testing.T) {
	boom := errors.New("canceled")
	for name, run := range map[string]func(sim.Spec, int, uint64, CampaignOptions) (*CampaignSummary, error){
		"fork":   CampaignParallel,
		"legacy": CampaignLegacy,
	} {
		_, err := run(faultSpec(sim.ModeSRT, "compress"), 4, 1,
			CampaignOptions{Parallelism: 1, Cancel: func() error { return boom }})
		if !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want wrapped cancel error", name, err)
		}
	}
}

// TestCampaignSize: both engines reject a negative trial count with an
// error (it used to panic drawing the fault plan), and run n = 0 as a
// valid empty campaign.
func TestCampaignSize(t *testing.T) {
	for name, run := range map[string]func(sim.Spec, int, uint64, CampaignOptions) (*CampaignSummary, error){
		"fork":   CampaignParallel,
		"legacy": CampaignLegacy,
	} {
		spec := faultSpec(sim.ModeSRT, "compress")
		spec.Budget, spec.Warmup = 1000, 500
		if sum, err := run(spec, -1, 1, CampaignOptions{Parallelism: 1}); err == nil {
			t.Errorf("%s: n=-1 returned %+v, want an error", name, sum)
		}
		sum, err := run(spec, 0, 1, CampaignOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: n=0: %v", name, err)
		}
		if sum.Runs != 0 || len(sum.Results) != 0 {
			t.Errorf("%s: n=0 summary %+v, want an empty campaign", name, sum)
		}
	}
}
