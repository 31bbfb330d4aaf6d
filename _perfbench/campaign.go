package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/rmt"
)

const (
	campaignBudget = rmt.DefaultCampaignBudget
	campaignWarmup = rmt.DefaultCampaignWarmup
	// planFamily is how many fault plans each campaign case has pinned
	// outcome digests for; the benchmark seed picks among them.
	planFamily = 16
	// checkpointEvery is the persistence leg's checkpoint interval in
	// cycles.
	checkpointEvery = 4096
)

type campaignCase struct {
	name string
	spec rmt.Spec
	n    int
}

// campaignCases is one campaign pass. SRT compress is detection-dominated
// (short replays); CRT gcc+swim is cross-coupled with the largest
// snapshots; every SRTR trial rolls back, and its golden pass pays the
// fault-free checkpoint captures; adaptive at θ=0.5 replays to
// convergence.
var campaignCases = []campaignCase{
	{"srt-compress", facadeSpec(rmt.SRT, "compress"), 96},
	{"crt-gcc+swim", facadeSpec(rmt.CRT, "gcc", "swim"), 32},
	{"srtr-gcc", facadeSpec(rmt.SRTR, "gcc"), 16},
	{"adaptive-gcc", facadeSpec(rmt.Adaptive, "gcc"), 32},
}

// persistSpec is the checkpoint-persistence leg's machine.
var persistSpec = facadeSpec(rmt.SRT, "gcc")

// planSeed is the fault-plan seed of plan k of the pinned family.
func planSeed(k int) uint64 { return splitmix64(0xC0FFEE + uint64(k)) }

// campaignPlans maps a benchmark seed to each case's first plan: case i
// starts at plan (seed+i) mod planFamily and moves on one plan per pass, so
// a run cycles through the pinned family and the seed sets where it starts.
// Every run thus averages over the same plans, and its totals do not hinge
// on which plan one seed happens to pick.
func campaignPlans(seed uint64) []int {
	out := make([]int, len(campaignCases))
	for i := range out {
		out[i] = int((seed + uint64(i)) % planFamily)
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func outcomeDigest(outcomes []string) string {
	h := sha256.Sum256([]byte(strings.Join(outcomes, ",")))
	return hex.EncodeToString(h[:])[:16]
}

type campaignSession struct {
	plans []int

	// traced-phase accumulators of the passes that did not fail: one
	// entry per pass, and every campaign's sweep report
	golden, replayWall, replayBusy, persistMs []float64
	reports                                   []rmt.Report
	counts                                    map[string]float64 // the first pass's, deterministic per seed
}

// setupCampaign resolves the fault plans and warms each case with a
// 16-trial campaign at the measured size.
func setupCampaign(seed uint64) (session, error) {
	s := &campaignSession{plans: campaignPlans(seed)}
	for _, c := range campaignCases {
		cs := rmt.CampaignSpec{Spec: c.spec, N: 16, Seed: planSeed(0)}
		if _, err := rmt.Campaign(context.Background(), cs, rmt.WithParallelism(parallelism),
			rmt.WithBudget(campaignBudget), rmt.WithWarmup(campaignWarmup)); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return s, nil
}

func (s *campaignSession) close() error { return nil }

func (s *campaignSession) run(deadline time.Time, tr *tracer, ph *phase) {
	ctx := context.Background()
	for time.Now().Before(deadline) {
		pass := ph.nextOp()
		t0 := time.Now()
		var trials, cycles, golden, replayWall, replayBusy float64
		var reports []rmt.Report
		counts := map[string]float64{}
		failed := false
		fail := func(format string, args ...any) {
			ph.note("pass %d: "+format, append([]any{pass}, args...)...)
			failed = true
		}
		tr.call("campaign.pass", 0, pass, 0, func(pid int) error {
			for i, c := range campaignCases {
				plan := (s.plans[i] + pass) % planFamily
				var sum *rmt.CampaignSummary
				first := -1
				var rep rmt.Report
				var firstAt, repAt time.Time
				start := time.Now()
				err := tr.call("rmt.Campaign/"+c.name, pid, pass, 0, func(id int) error {
					var err error
					sum, err = rmt.Campaign(ctx, rmt.CampaignSpec{Spec: c.spec, N: c.n, Seed: planSeed(plan)},
						rmt.WithParallelism(parallelism), rmt.WithBudget(campaignBudget), rmt.WithWarmup(campaignWarmup),
						rmt.WithProgress(func(done, _ int) {
							if first < 0 {
								first, firstAt = done, time.Now()
							}
						}),
						rmt.WithReport(func(r rmt.Report) { rep, repAt = r, time.Now() }))
					if err == nil && tr != nil {
						tr.add("fault.golden", id, pass, 0, start, repAt.Add(-rep.Wall))
						tr.add("fault.replay", id, pass, 0, repAt.Add(-rep.Wall), repAt)
					}
					return err
				})
				if err != nil {
					fail("%s: %v", c.name, err)
					continue
				}
				if got, want := outcomeDigest(sum.Outcomes), campaignDigests[c.name][plan]; got != want {
					fail("%s plan %d: outcome digest %s, pinned %s", c.name, plan, got, want)
				}
				if c.spec.Mode == rmt.SRTR && sum.Recovered != sum.Runs {
					fail("%s: %d of %d trials recovered", c.name, sum.Recovered, sum.Runs)
				}
				trials += float64(sum.Runs)
				cycles += float64(sum.TotalCycles)
				golden += repAt.Sub(start).Seconds() - rep.Wall.Seconds()
				replayWall += rep.Wall.Seconds()
				replayBusy += rep.Busy.Seconds()
				reports = append(reports, rep)
				// The engine reports the trials it classifies without a
				// replay in one Progress call before the replays start.
				if first > 0 && firstAt.Before(repAt.Add(-rep.Wall)) {
					counts["fault.cheap_trials"] += float64(first)
				}
				counts["fault.detected"] += float64(sum.Detected)
				counts["fault.masked"] += float64(sum.Masked)
				counts["fault.recovered"] += float64(sum.Recovered)
				counts["fault.unprotected_sdc"] += float64(sum.UnprotectedSDC)
				counts["fault.not_fired"] += float64(sum.NotFired)
				counts["fault.simcycles"] += float64(sum.TotalCycles)
			}
			persistMs, err := s.persistLeg(ctx, tr, pid, pass)
			if err != nil {
				fail("persistence leg: %v", err)
			}
			if tr != nil && !failed {
				s.golden = append(s.golden, golden)
				s.replayWall = append(s.replayWall, replayWall)
				s.replayBusy = append(s.replayBusy, replayBusy)
				s.persistMs = append(s.persistMs, persistMs)
				s.reports = append(s.reports, reports...)
				if pass == 0 {
					s.counts = counts
				}
			}
			return nil
		})
		ph.record(!failed, float64(time.Since(t0).Nanoseconds())/1e6, trials, cycles)
	}
}

// persistLeg runs persistSpec uninterrupted, then with a checkpoint sink,
// then resumed from the middle checkpoint, and checks that all three
// Results are identical. It returns the extra wall time per persisted
// checkpoint.
func (s *campaignSession) persistLeg(ctx context.Context, tr *tracer, pid, pass int) (float64, error) {
	opts := []rmt.Option{rmt.WithBudget(campaignBudget), rmt.WithWarmup(campaignWarmup)}
	runSpan := func(name string, extra ...rmt.Option) (res *rmt.Result, d time.Duration, err error) {
		t0 := time.Now()
		err = tr.call("rmt.Run/"+name, pid, pass, 0, func(int) error {
			var err error
			res, err = rmt.Run(ctx, persistSpec, append(opts[:len(opts):len(opts)], extra...)...)
			return err
		})
		return res, time.Since(t0), err
	}
	ref, dRef, err := runSpan("plain")
	if err != nil {
		return 0, err
	}
	var snaps [][]byte
	ck, dCk, err := runSpan("checkpoint", rmt.WithCheckpoint(checkpointEvery, func(_ uint64, b []byte) error {
		snaps = append(snaps, b)
		return nil
	}))
	if err != nil {
		return 0, err
	}
	if len(snaps) == 0 {
		return 0, fmt.Errorf("no checkpoint taken")
	}
	resumed, _, err := runSpan("resume", rmt.Resume(snaps[len(snaps)/2]))
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(ref, ck) || !reflect.DeepEqual(ref, resumed) {
		return 0, fmt.Errorf("checkpointed or resumed result differs from the uninterrupted run")
	}
	return float64((dCk - dRef).Nanoseconds()) / 1e6 / float64(len(snaps)), nil
}

// verify has nothing to add: each campaign is checked against its pinned
// digest and the persistence leg against the uninterrupted run as they
// complete.
func (s *campaignSession) verify(ph *phase) {}

// details has nothing to add: campaign_pass_s_p50 and
// campaign_trials_per_s are the end-to-end op_ms_p50 and work_per_s.
func (s *campaignSession) details(ph *phase) []figure { return nil }

func (s *campaignSession) layers(t *phase, out map[string]float64) error {
	runnerLayer(s.reports, len(s.golden), out)
	out["fault.golden_s"] = median(s.golden)
	out["fault.replay_wall_s"] = median(s.replayWall)
	out["fault.replay_busy_s"] = median(s.replayBusy)
	out["snap.persist_ms"] = median(s.persistMs)
	for k, v := range s.counts {
		out[k] = v
	}
	if err := snapshotProbes(out); err != nil {
		return err
	}
	r, err := srtrOverSRT(context.Background())
	if err != nil {
		return err
	}
	out["sim.srtr_over_srt"] = r
	var specs []rmt.Spec
	for _, c := range campaignCases {
		specs = append(specs, c.spec)
	}
	return modelCounts(specs, campaignBudget, campaignWarmup, out)
}
