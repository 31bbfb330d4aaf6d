package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "call", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "call", Start: 30 * ms, End: 60 * ms}, // overlaps 2
		{ID: 4, Parent: 2, Name: "inner", Start: 20 * ms, End: 30 * ms},
		{ID: 5, Parent: 1, Name: "late", Start: 90 * ms, End: 120 * ms}, // clipped
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass":  100*ms - 50*ms - 10*ms, // children cover 10..60 and 90..100
		"call":  20*ms + 30*ms,          // span 2 minus its child, span 3 whole
		"inner": 10 * ms,
		"late":  30 * ms,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}
