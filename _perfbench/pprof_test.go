package main

import (
	"math"
	"testing"
)

const sampleTop = `File: perfbench
Type: cpu
Time: Oct 17, 2026 at 3:00am (UTC)
Duration: 10.01s, Total samples = 2000ms (19.98%)
Showing nodes accounting for 2000ms, 100% of 2000ms total
      flat  flat%   sum%        cum   cum%
     600ms 30.00% 30.00%     1000ms 50.00%  repro/internal/pipeline.(*Core).issueStage
     300ms 15.00% 45.00%      300ms 15.00%  repro/internal/mem.(*Cache).Lookup
     200ms 10.00% 55.00%      200ms 10.00%  repro/internal/mem.(*Cache).RestoreFrom
     200ms 10.00% 65.00%      200ms 10.00%  runtime.scanobject
     100ms  5.00% 70.00%      100ms  5.00%  repro/internal/snap.(*Writer).U64 (inline)
     100ms  5.00% 75.00%      100ms  5.00%  encoding/json.(*encodeState).string
     100ms  5.00% 80.00%      100ms  5.00%  net/http.(*conn).serve
     100ms  5.00% 85.00%      100ms  5.00%  repro/internal/vm.(*Thread).StepInto
     100ms  5.00% 90.00%      100ms  5.00%  repro/internal/rmt.(*LVQ).Push
     100ms  5.00% 95.00%      100ms  5.00%  repro/internal/predict.(*Hybrid).Predict
     100ms  5.00%   100%      400ms 20.00%  repro/internal/pipeline.(*Core).fetchStage
         0     0%   100%      300ms 15.00%  runtime.gcBgMarkWorker
         0     0%   100%      100ms  5.00%  runtime.gcAssistAlloc
         0     0%   100%     1900ms 95.00%  repro/internal/pipeline.(*Core).Step
`

func TestParseTopAndShares(t *testing.T) {
	rows, total, err := parseTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2000 || len(rows) != 14 {
		t.Fatalf("total %v, %d rows", total, len(rows))
	}
	if rows[4].Func != "repro/internal/snap.(*Writer).U64" {
		t.Errorf("inline suffix kept: %q", rows[4].Func)
	}
	got := cpuShares(rows, total)
	want := map[string]float64{
		"cpu.pipeline.issue":    0.50,
		"cpu.pipeline.fetch":    0.20,
		"cpu.pipeline.dispatch": 0,
		"cpu.mem":               0.15, // RestoreFrom goes to cpu.snap
		"cpu.snap":              0.15, // RestoreFrom plus the snap codec
		"cpu.gc":                0.20, // mark worker plus assists, cumulative
		"cpu.json":              0.05,
		"cpu.server":            0.05,
		"cpu.vm":                0.05,
		"cpu.rmt":               0.05,
		"cpu.predict":           0.05,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseTopRejectsEmpty(t *testing.T) {
	if _, _, err := parseTop("File: x\n"); err == nil {
		t.Error("a report without samples parsed")
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/pipeline.(*Core).issueStage":    "repro/internal/pipeline",
		"runtime.mallocgc":                              "runtime",
		"net/http.(*conn).serve":                        "net/http",
		"repro/internal/fault.CampaignParallel.func1.2": "repro/internal/fault",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
