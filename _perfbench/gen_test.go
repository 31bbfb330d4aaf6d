package main

import (
	"reflect"
	"testing"

	"repro/internal/fault"
)

func draw(seed uint64, client, n int) []int {
	run, sweep, camp := rmtdKeys()
	s := newStream(seed, client, len(run), len(sweep), len(camp))
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// TestStreamSeeded: the same seed gives the same request stream, another
// seed or client a different one, and every drawn index is a valid key.
func TestStreamSeeded(t *testing.T) {
	a, b := draw(7, 0, 5000), draw(7, 0, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, draw(8, 0, 5000)) || reflect.DeepEqual(a, draw(7, 1, 5000)) {
		t.Fatal("different seed or client, same stream")
	}
	run, sweep, camp := rmtdKeys()
	total := len(run) + len(sweep) + len(camp)
	other := 0
	for _, k := range a {
		if k < 0 || k >= total {
			t.Fatalf("key index %d out of range", k)
		}
		if k >= len(run) {
			other++
		}
	}
	// 3% of requests are /sweep or /campaign.
	if other < 75 || other > 225 {
		t.Errorf("%d of 5000 requests are /sweep or /campaign, want about 150", other)
	}
	if len(run) <= 512 {
		t.Errorf("%d /run keys fit in the server's 512-entry cache", len(run))
	}
}

// TestFaultPlansSeeded: a benchmark seed maps to the same fault plans
// every time.
func TestFaultPlansSeeded(t *testing.T) {
	if !reflect.DeepEqual(campaignPlans(5), campaignPlans(5)) {
		t.Fatal("same seed, different plan choice")
	}
	if reflect.DeepEqual(campaignPlans(5), campaignPlans(6)) {
		t.Fatal("different seeds, same plan choice")
	}
	for _, c := range campaignCases {
		spec := simSpec(c.spec, campaignBudget, campaignWarmup)
		for _, k := range campaignPlans(5) {
			if !reflect.DeepEqual(fault.Plan(spec, c.n, planSeed(k)), fault.Plan(spec, c.n, planSeed(k))) {
				t.Fatalf("%s plan %d differs between draws", c.name, k)
			}
		}
	}
}
