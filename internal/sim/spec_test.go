package sim

import (
	"math"
	"testing"

	"repro/internal/pipeline"
)

func TestParseMode(t *testing.T) {
	want := map[string]Mode{
		"base":     ModeBase,
		"base2":    ModeBase2,
		"srt":      ModeSRT,
		"lockstep": ModeLockstep,
		"crt":      ModeCRT,
		"srtr":     ModeSRTR,
		"adaptive": ModeAdaptive,
	}
	if len(want) != len(Modes()) {
		t.Fatalf("table lists %d modes, Modes has %d", len(want), len(Modes()))
	}
	for name, mode := range want {
		got, err := ParseMode(name)
		if err != nil || got != mode {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("sr"); err == nil {
		t.Error("ParseMode accepted a bad mode")
	}
	if _, err := Mode(99).MarshalText(); err == nil {
		t.Error("MarshalText spelled an unknown mode")
	}
}

// TestValidateRejects: every spec Build cannot assemble is an error from
// Validate, and so from Build, never a panic.
func TestValidateRejects(t *testing.T) {
	ok := Spec{Mode: ModeAdaptive, Programs: []string{"gcc"}, Config: pipeline.DefaultConfig(), AdaptiveThreshold: 0.5}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(s *Spec){
		"zero config":    func(s *Spec) { s.Config = pipeline.Config{} },
		"no sets":        func(s *Spec) { s.Config.Hier.L2Size = 64 },
		"odd block":      func(s *Spec) { s.Config.Hier.BlockBytes = 48 },
		"sub-word block": func(s *Spec) { s.Config.Hier.BlockBytes = 4 },
		"unknown mode":   func(s *Spec) { s.Mode = Mode(len(Modes())) },
		"no programs":    func(s *Spec) { s.Programs = nil },
		"unknown kernel": func(s *Spec) { s.Programs = []string{"gcc", "nonesuch"} },
		"theta NaN":      func(s *Spec) { s.AdaptiveThreshold = math.NaN() },
		"theta +Inf":     func(s *Spec) { s.AdaptiveThreshold = math.Inf(1) },
		"theta -Inf":     func(s *Spec) { s.AdaptiveThreshold = math.Inf(-1) },
		"theta 2":        func(s *Spec) { s.AdaptiveThreshold = 2 },
	}
	for name, mutate := range cases {
		s := ok
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
		if _, err := Build(s); err == nil {
			t.Errorf("%s: Build accepted the spec", name)
		}
	}
	// θ is only checked where it is read.
	srt := ok
	srt.Mode, srt.AdaptiveThreshold = ModeSRT, math.NaN()
	if err := srt.Validate(); err != nil {
		t.Errorf("SRT spec rejected for a θ it ignores: %v", err)
	}
}

func TestCanonical(t *testing.T) {
	base := Spec{Programs: []string{"gcc"}, Config: pipeline.DefaultConfig()}
	with := func(m Mode, f func(s *Spec)) Spec {
		s := base
		s.Mode = m
		f(&s)
		return s
	}
	cases := []struct {
		name    string
		in, out Spec
	}{
		{"theta -0", with(ModeAdaptive, func(s *Spec) { s.AdaptiveThreshold = math.Copysign(0, -1) }), with(ModeAdaptive, func(*Spec) {})},
		{"theta -1", with(ModeAdaptive, func(s *Spec) { s.AdaptiveThreshold = -1 }), with(ModeAdaptive, func(*Spec) {})},
		{"theta kept", with(ModeAdaptive, func(s *Spec) { s.AdaptiveThreshold = 0.5 }), with(ModeAdaptive, func(s *Spec) { s.AdaptiveThreshold = 0.5 })},
		{"theta ignored", with(ModeSRT, func(s *Spec) { s.AdaptiveThreshold = 0.5 }), with(ModeSRT, func(*Spec) {})},
		{"srtr defaults", with(ModeSRTR, func(*Spec) {}), with(ModeSRTR, func(s *Spec) {
			s.CheckpointInterval, s.MaxRecoveries = defaultCheckpointInterval, defaultMaxRecoveries
		})},
		{"interval ignored", with(ModeSRT, func(s *Spec) { s.CheckpointInterval, s.MaxRecoveries = 256, 2 }), with(ModeSRT, func(*Spec) {})},
		{"checker kept", with(ModeLockstep, func(s *Spec) { s.CheckerLatency = 8 }), with(ModeLockstep, func(s *Spec) { s.CheckerLatency = 8 })},
		{"checker ignored", with(ModeCRT, func(s *Spec) { s.CheckerLatency = 8 }), with(ModeCRT, func(*Spec) {})},
	}
	for _, tc := range cases {
		got := tc.in.Canonical()
		if math.Signbit(got.AdaptiveThreshold) || got.AdaptiveThreshold != tc.out.AdaptiveThreshold ||
			got.CheckerLatency != tc.out.CheckerLatency || got.CheckpointInterval != tc.out.CheckpointInterval ||
			got.MaxRecoveries != tc.out.MaxRecoveries {
			t.Errorf("%s: Canonical = %+v, want %+v", tc.name, got, tc.out)
		}
		if again := got.Canonical(); again.AdaptiveThreshold != got.AdaptiveThreshold ||
			again.CheckpointInterval != got.CheckpointInterval || again.CheckerLatency != got.CheckerLatency {
			t.Errorf("%s: Canonical is not idempotent", tc.name)
		}
	}
}

// FuzzSpec: any spec either fails Validate or builds and runs a short
// budget without panicking. cfg selects the paper's configuration (0), the
// zero Config (1), or the paper's with fuzzed cache geometry; the sizes
// stay below 64 KB so no input can demand a huge allocation. A 200-
// instruction budget finishes in a few thousand cycles on any machine
// that is not stuck, so MaxCycles ends stuck ones (an error, not a
// failure) before SRTR's per-interval snapshots make an input slow.
func FuzzSpec(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(uint8(ModeSRT), "gcc", 0.0, uint64(0), uint64(0), uint8(1), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeAdaptive), "gcc", math.NaN(), uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeAdaptive), "li", negZero, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeAdaptive), "gcc", -1.0, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeAdaptive), "gcc", 2.0, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeAdaptive), "compress", 0.5, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeSRTR), "gen:7", 0.0, uint64(0), uint64(1), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeLockstep), "swim", 0.0, uint64(8), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeCRT), "gcc", 0.0, uint64(0), uint64(0), uint8(2), uint16(4096), uint16(16384), int8(2), int16(64))
	f.Add(uint8(ModeBase2), "go", 0.0, uint64(0), uint64(0), uint8(2), uint16(64), uint16(64), int8(1), int16(64))
	f.Add(uint8(ModeBase), "gcc", 0.0, uint64(0), uint64(0), uint8(2), uint16(4096), uint16(0), int8(0), int16(-64))
	f.Add(uint8(len(Modes())), "gcc", 0.0, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeSRT), "", 0.0, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))
	f.Add(uint8(ModeSRT), "nonesuch", 0.0, uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), int8(0), int16(0))

	f.Fuzz(func(t *testing.T, mode uint8, prog string, theta float64, checker, interval uint64,
		cfg uint8, l1Size, l2Size uint16, ways int8, block int16) {
		spec := Spec{
			Mode:               Mode(mode),
			Budget:             200,
			MaxCycles:          20000,
			Config:             pipeline.DefaultConfig(),
			PSR:                true,
			CheckerLatency:     checker,
			CheckpointInterval: interval,
			AdaptiveThreshold:  theta,
		}
		if prog != "" {
			spec.Programs = []string{prog}
		}
		switch cfg {
		case 0:
		case 1:
			spec.Config = pipeline.Config{}
		default:
			h := &spec.Config.Hier
			h.L1ISize, h.L1DSize, h.L2Size = int(l1Size), int(l1Size), int(l2Size)
			h.L1IWays, h.L1DWays, h.L2Ways = int(ways), int(ways), int(ways)
			h.BlockBytes = int(block)
		}
		if spec.Validate() != nil {
			return
		}
		m, err := Build(spec)
		if err != nil {
			t.Fatalf("Build rejected a validated spec: %v", err)
		}
		m.Run() // a run may fail (cycle cap); it must not panic
	})
}
