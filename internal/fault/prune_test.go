package fault

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/vm"
)

// pruneSpec targets the kernels whose vulnerability profiles carry masked
// sites (gcc, li have dead writes and discarded links), so static pruning
// has real trials to claim.
func pruneSpec() sim.Spec {
	s := faultSpec(sim.ModeSRT, "gcc", "li")
	s.Budget, s.Warmup = 3000, 1000
	return s
}

// checkPrunedMatchesReference is the pruning invariant for one campaign:
// the default engine, which classifies statically-masked trials without
// replay, must match the unpruned reference — the same campaign under
// ValidateStaticMasking, where every one of those trials is replayed and
// checked — on every aggregate and every per-trial Result. It returns how
// many trials the default engine pruned.
func checkPrunedMatchesReference(t *testing.T, spec sim.Spec, n int, seed uint64) int {
	t.Helper()
	ref, err := CampaignParallel(spec, n, seed, CampaignOptions{Parallelism: 1, ValidateStaticMasking: true})
	if err != nil {
		t.Fatalf("unpruned reference: %v", err)
	}
	var stats PruneStats
	pruned, err := CampaignParallel(spec, n, seed, CampaignOptions{Parallelism: 4, PruneStats: &stats})
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	t.Logf("prune stats: %+v", stats)
	if pruned.Runs != ref.Runs || pruned.Detected != ref.Detected ||
		pruned.Masked != ref.Masked || pruned.NotFired != ref.NotFired ||
		pruned.Recovered != ref.Recovered || pruned.UnprotectedSDC != ref.UnprotectedSDC ||
		pruned.MeanDetectionCycles != ref.MeanDetectionCycles ||
		pruned.MeanRecoveryCycles != ref.MeanRecoveryCycles ||
		pruned.TotalCycles != ref.TotalCycles {
		t.Fatalf("summary differs:\npruned:   %+v\nunpruned: %+v", pruned, ref)
	}
	for i := range pruned.Results {
		if pruned.Results[i] != ref.Results[i] {
			t.Fatalf("trial %d: pruned %+v, unpruned %+v", i, pruned.Results[i], ref.Results[i])
		}
	}
	return stats.Pruned
}

// TestPrunedCampaignByteIdentical: in every mode that prunes, the default
// (pruned) campaign is byte-identical to the unpruned reference — pruning
// may only skip work whose outcome is already proven, never change one.
// Each row's spec is chosen so that, at this plan, the row really prunes.
func TestPrunedCampaignByteIdentical(t *testing.T) {
	crt := faultSpec(sim.ModeCRT, "gcc", "swim")
	crt.Budget, crt.Warmup = 3000, 1000
	adaptive := faultSpec(sim.ModeAdaptive, "gcc")
	adaptive.Budget, adaptive.Warmup = 3000, 1000
	adaptive.AdaptiveThreshold = 0.5
	cases := []struct {
		name string
		spec sim.Spec
	}{
		{"srt gcc+li", pruneSpec()},
		{"crt gcc+swim", crt},
		{"adaptive gcc", adaptive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if checkPrunedMatchesReference(t, tc.spec, 96, 0xACE) == 0 {
				t.Fatal("no trials pruned: the row no longer exercises pruning")
			}
		})
	}
}

// TestStaticMaskingCrossValidation is the acceptance gate for the ACE
// analysis: over every registered kernel, every statically-masked site that
// fires is replayed under ValidateStaticMasking, which errors if the
// dynamic outcome is anything but Masked-at-the-golden-end-cycle. A failure
// here means the static analysis claimed a proof the machine refutes.
func TestStaticMaskingCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation sweeps every kernel; skipped in -short")
	}
	for _, name := range program.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := faultSpec(sim.ModeSRT, name)
			spec.Budget, spec.Warmup = 2000, 800
			var stats PruneStats
			_, err := CampaignParallel(spec, 48, 0xC0DE, CampaignOptions{
				Parallelism:           2,
				ValidateStaticMasking: true,
				PruneStats:            &stats,
			})
			if err != nil {
				t.Fatalf("cross-validation: %v", err)
			}
			t.Logf("prune stats: %+v", stats)
		})
	}
}

// TestStaticMaskedSitesExhaustive aims one injection at EVERY
// statically-masked site of every kernel, rather than waiting for a random
// plan to land on one: a fault-free observer run records the first dynamic
// sequence number at which each masked pc executes, and a targeted
// transient at exactly that sequence must classify Masked for both copies
// and several bit positions. Together with the randomized cross-validation
// above this discharges the claim that no statically-masked site can fire
// as detected.
func TestStaticMaskedSitesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("per-site sweep; skipped in -short")
	}
	sites := 0
	for _, name := range program.Names() {
		prog, err := program.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := analysis.AnalyzeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.MaskedSites) == 0 {
			continue
		}
		spec := faultSpec(sim.ModeSRT, name)
		spec.Budget, spec.Warmup = 2500, 800
		m, err := sim.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		firstSeq := map[uint64]uint64{}
		m.Leads[0].Arch.Corrupt = func(point vm.CorruptPoint, seq, pc, v uint64) uint64 {
			if point == vm.PointResult && seq >= 64 {
				if _, ok := firstSeq[pc]; !ok {
					firstSeq[pc] = seq
				}
			}
			return v
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s observer run: %v", name, err)
		}
		for _, site := range prof.MaskedSites {
			seq, executed := firstSeq[uint64(site.PC)]
			if !executed {
				// Statically reachable but not covered within the budget
				// (or unreachable by construction): no dynamic site exists.
				continue
			}
			points := []vm.CorruptPoint{vm.PointResult}
			if prog.Code[site.PC].IsLoad() {
				points = append(points, vm.PointLoadValue)
			}
			for _, target := range []Copy{LeadingCopy, TrailingCopy} {
				for _, point := range points {
					for _, bit := range []uint{0, 33, 63} {
						f := Transient{Target: target, AtSeq: seq, Point: point, Bit: bit}
						res, err := RunOne(spec, f)
						if err != nil {
							t.Fatalf("%s pc=%d (%s, %s) %v: %v", name, site.PC, site.Reg, site.Reason, f, err)
						}
						if res.Outcome != Masked {
							t.Errorf("%s pc=%d (%s, %s) %v: outcome %v, want masked",
								name, site.PC, site.Reg, site.Reason, f, res.Outcome)
						}
						sites++
					}
				}
			}
		}
	}
	if sites == 0 {
		t.Fatal("no masked site was exercised: kernels lost all masked sites?")
	}
	t.Logf("validated %d targeted injections at statically-masked sites", sites)
}

// TestPruneStatsWithoutPruning: PruneStats is still filled (with zero
// pruned) for a campaign that cannot prune — SRTR, whose register value
// queue detects even architecturally masked flips — so callers can report
// unconditionally.
func TestPruneStatsWithoutPruning(t *testing.T) {
	spec := pruneSpec()
	spec.Mode = sim.ModeSRTR
	var stats PruneStats
	if _, err := CampaignParallel(spec, 8, 7, CampaignOptions{Parallelism: 1, PruneStats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Planned != 8 || stats.Pruned != 0 {
		t.Fatalf("stats = %+v, want Planned=8 Pruned=0", stats)
	}
}
