package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/rmt"
)

// TestPins recomputes every pinned digest. On a mismatch it prints the
// tables to paste into pins.go, after checking that the simulator change
// behind it is intended.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every pinned figure and campaign")
	}
	var b strings.Builder
	ok := true
	fmt.Fprintln(&b, "var figureDigests = map[string]string{")
	for _, e := range rmt.Experiments() {
		if !slices.Contains(figureIDs, e.ID) {
			continue
		}
		_, sum, err := e.Run(rmt.WithBudget(figBudget), rmt.WithWarmup(figWarmup), rmt.WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		d := summaryDigest(sum)
		ok = ok && d == figureDigests[e.ID]
		fmt.Fprintf(&b, "\t%q: %q,\n", e.ID, d)
	}
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b, "var campaignDigests = map[string][planFamily]string{")
	for _, c := range campaignCases {
		fmt.Fprintf(&b, "\t%q: {", c.name)
		for k := 0; k < planFamily; k++ {
			sum, err := rmt.Campaign(context.Background(), rmt.CampaignSpec{Spec: c.spec, N: c.n, Seed: planSeed(k)},
				rmt.WithParallelism(parallelism), rmt.WithBudget(campaignBudget), rmt.WithWarmup(campaignWarmup))
			if err != nil {
				t.Fatal(err)
			}
			if c.spec.Mode == rmt.SRTR && sum.Recovered != sum.Runs {
				t.Errorf("%s plan %d: %d of %d trials recovered", c.name, k, sum.Recovered, sum.Runs)
			}
			d := outcomeDigest(sum.Outcomes)
			ok = ok && d == campaignDigests[c.name][k]
			fmt.Fprintf(&b, "%q, ", d)
		}
		fmt.Fprintln(&b, "},")
	}
	fmt.Fprintln(&b, "}")
	if !ok {
		t.Errorf("pinned digests differ; recomputed:\n%s", b.String())
	}
}
