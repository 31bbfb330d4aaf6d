package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/rmt"
)

// Figure sizes: between exp.Quick (8k/5k) and exp.Full (50k/50k), so one
// pass of Figures 6, 8 and 11 takes about two seconds on two cores, a run
// holds a dozen passes, and the simulations, not machine build, dominate
// each of them.
const (
	figBudget   = 10000
	figWarmup   = 6000
	parallelism = 2
)

var figureIDs = []string{"fig6", "fig8", "fig11"}

type figuresSession struct {
	exps    []rmt.Experiment
	effErrs []float64    // paper_eff_abs_err of each pass
	reports []rmt.Report // sweep reports of the traced phase's good passes
}

// setupFigures looks the figures up and warms every simulated machine
// organisation they use with a pass at a quarter of the measured size. The
// figures' inputs are the paper's fixed kernel sets, so the seed changes
// nothing: a different order of the figures in a pass measurably changes
// the pass's garbage-collection pattern, peak heap and time, which would
// read as run-to-run noise.
func setupFigures(uint64) (session, error) {
	byID := map[string]rmt.Experiment{}
	for _, e := range rmt.Experiments() {
		byID[e.ID] = e
	}
	s := &figuresSession{}
	for _, id := range figureIDs {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiment %s not found", id)
		}
		s.exps = append(s.exps, e)
		if _, _, err := e.Run(rmt.WithBudget(figBudget/4), rmt.WithWarmup(figWarmup/4), rmt.WithParallelism(parallelism)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *figuresSession) close() error { return nil }

func (s *figuresSession) run(deadline time.Time, tr *tracer, ph *phase) {
	for time.Now().Before(deadline) {
		pass := ph.nextOp()
		t0 := time.Now()
		var sims, cycles float64
		var reports []rmt.Report
		summaries := map[string]map[string]float64{}
		failed := false
		tr.call("figures.pass", 0, pass, 0, func(pid int) error {
			for _, e := range s.exps {
				err := tr.call("rmt.Experiment.Run/"+e.ID, pid, pass, 0, func(id int) error {
					_, sum, err := e.Run(rmt.WithBudget(figBudget), rmt.WithWarmup(figWarmup),
						rmt.WithParallelism(parallelism),
						rmt.WithReport(func(r rmt.Report) {
							sims += float64(r.Jobs)
							if tr != nil {
								now := time.Now()
								tr.add("runner.Run", id, pass, 0, now.Add(-r.Wall), now)
								reports = append(reports, r)
							}
						}))
					if err != nil {
						return err
					}
					summaries[e.ID] = sum
					cycles += sum["simcycles"]
					return nil
				})
				if err != nil {
					ph.note("pass %d %s: %v", pass, e.ID, err)
					failed = true
					return err
				}
				if got, want := summaryDigest(summaries[e.ID]), figureDigests[e.ID]; got != want {
					ph.note("pass %d %s: summary digest %s, pinned %s", pass, e.ID, got, want)
					failed = true
				}
			}
			return nil
		})
		ph.record(!failed, float64(time.Since(t0).Nanoseconds())/1e6, sims, cycles)
		if !failed {
			s.effErrs = append(s.effErrs, paperEffAbsErr(summaries))
			s.reports = append(s.reports, reports...)
		}
	}
}

// summaryDigest hashes a figure's summary map in key order with every
// float in its shortest exact form.
func summaryDigest(sum map[string]float64) string {
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(sum[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// paperEffAbsErr is the mean absolute difference between the simulated
// SMT-efficiencies and the numbers in the figure titles: Fig 6 SRT 0.68
// and SRT+ptSQ 0.70, Fig 8 SRT 0.60 and ptSQ 0.68, and Fig 11 CRT 13%
// over Lock8. The simulator collects statistics after warmup; beyond these
// five numbers the model is unvalidated.
func paperEffAbsErr(sums map[string]map[string]float64) float64 {
	f6, f8, f11 := sums["fig6"], sums["fig8"], sums["fig11"]
	errs := []float64{
		f6["SRT"] - 0.68,
		f6["SRT+ptSQ"] - 0.70,
		f8["srt"] - 0.60,
		f8["ptsq"] - 0.68,
		f11["crt"]/f11["lock8"] - 1 - 0.13,
	}
	var t float64
	for _, e := range errs {
		t += math.Abs(e)
	}
	return t / float64(len(errs))
}

// verify has nothing to add: every pass is checked against the pinned
// digests as it completes.
func (s *figuresSession) verify(ph *phase) {}

func (s *figuresSession) details(ph *phase) []figure {
	var effErr float64
	if len(s.effErrs) > 0 {
		effErr = s.effErrs[0]
	}
	return []figure{{"paper_eff_abs_err", effErr, "ratio", len(s.effErrs)}}
}

func (s *figuresSession) layers(t *phase, out map[string]float64) error {
	runnerLayer(s.reports, len(t.opMs), out)
	if err := steppingProbes(out); err != nil {
		return err
	}
	return modelCounts(stepSpecs(), figBudget, figWarmup, out)
}

// runnerLayer reports internal/runner's utilisation (busy over wall times
// workers) and its jobs per op, from the sweep reports of a traced phase.
func runnerLayer(reports []rmt.Report, ops int, out map[string]float64) {
	var busy, capacity float64
	jobs := 0
	for _, r := range reports {
		busy += r.Busy.Seconds()
		capacity += r.Wall.Seconds() * float64(r.Parallelism)
		jobs += r.Jobs
	}
	if capacity > 0 {
		out["runner.utilisation"] = busy / capacity
	}
	if ops > 0 {
		out["runner.jobs"] = float64(jobs) / float64(ops)
	}
}
