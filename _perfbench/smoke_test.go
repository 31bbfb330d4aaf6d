package main

import (
	"math"
	"testing"
	"time"
)

// TestRmtdSmoke drives the rmtd workload for a second, runs its output
// checks and shuts the server down: with -race this covers the two
// concurrent clients and the shared reply table.
func TestRmtdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and simulates")
	}
	s, err := setupRmtd(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.(warmer).warm(); err != nil {
		t.Fatal(err)
	}
	ph := measure(s, time.Second, newTracer())
	s.verify(ph)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || len(ph.opMs) == 0 {
		t.Fatalf("%d of %d requests failed: %v", ph.failed, ph.attempted, ph.failures)
	}
	byName := map[string]float64{}
	for _, f := range s.details(ph) {
		byName[f.Name] = f.Value
	}
	if sum := byName["rmtd.share.hit"] + byName["rmtd.share.miss"] + byName["rmtd.share.dedup"]; math.Abs(sum-1) > 1e-9 {
		t.Errorf("hit, miss and dedup shares sum to %v, want 1", sum)
	}
	a, err := s.(*rmtdSession).clientAllocsPerReq()
	if err != nil || a <= 0 {
		t.Errorf("client allocs per request %v, %v", a, err)
	}
}

// TestCampaignRunnerLayer: only the traced phase's good passes feed
// runner.jobs, so it is the jobs of one pass whatever the untraced phase
// did.
func TestCampaignRunnerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault campaigns")
	}
	ses, err := setupCampaign(1)
	if err != nil {
		t.Fatal(err)
	}
	s := ses.(*campaignSession)
	s.run(time.Now().Add(time.Millisecond), nil, &phase{})
	if len(s.reports) != 0 {
		t.Fatalf("untraced pass kept %d reports", len(s.reports))
	}
	ph := &phase{}
	s.run(time.Now().Add(time.Millisecond), newTracer(), ph)
	if ph.failed != 0 || len(s.reports) != len(campaignCases) {
		t.Fatalf("traced pass: %d failed, %d reports: %v", ph.failed, len(s.reports), ph.failures)
	}
	out := map[string]float64{}
	runnerLayer(s.reports, len(s.golden), out)
	jobs := 0
	for _, r := range s.reports {
		jobs += r.Jobs
	}
	if out["runner.jobs"] != float64(jobs) {
		t.Errorf("runner.jobs %v, want %d for one pass", out["runner.jobs"], jobs)
	}
}
