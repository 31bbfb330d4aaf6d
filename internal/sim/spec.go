// The one definition of a simulation: the machine organisations, their
// names, and the Spec that selects one. Every layer above (the rmt facade,
// the cmd/ tools, rmtd's wire format) reuses these instead of mirroring
// them.

package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/progen"
	"repro/internal/vm"
)

// Mode selects the machine organisation.
type Mode int

// Machine organisations.
const (
	// ModeBase is the unprotected base SMT processor: one hardware thread
	// per logical program.
	ModeBase Mode = iota
	// ModeBase2 runs two independent copies of each program as separate
	// hardware threads with no input replication or output comparison
	// (Figure 6's "Base2" reference point).
	ModeBase2
	// ModeSRT runs each program as a leading/trailing redundant pair on
	// one core.
	ModeSRT
	// ModeLockstep models two cycle-synchronised cores with a central
	// checker. Because the two lockstepped cores are cycle-identical by
	// construction, the model simulates one core and charges the checker
	// interposition penalties (cache-miss path and store-exit path); see
	// DESIGN.md.
	ModeLockstep
	// ModeCRT runs leading and trailing copies on different cores of a
	// two-way CMP, cross-coupled for multiprogram workloads (Figure 5).
	ModeCRT
	// ModeSRTR extends SRT with recovery (after Vijaykumar et al.'s SRTR):
	// every retired register result is cross-checked through a register
	// value queue, machine state is checkpointed at a fixed cycle interval,
	// and a checkpoint becomes a valid rollback target once the trailing
	// copy has validated everything it captured. On detection the machine
	// rolls back and re-executes instead of halting.
	ModeSRTR
	// ModeAdaptive is SRT with partial redundancy: a static per-PC
	// protection table derived from the ACE/liveness vulnerability profile
	// gates which instructions enter the sphere of replication. Low-
	// vulnerability regions run untagged (no LVQ/comparator traffic — the
	// slack this buys is the point), trading detection coverage there.
	ModeAdaptive
)

func (m Mode) String() string {
	names := [...]string{
		ModeBase: "base", ModeBase2: "base2", ModeSRT: "srt", ModeLockstep: "lockstep",
		ModeCRT: "crt", ModeSRTR: "srtr", ModeAdaptive: "adaptive",
	}
	if !m.valid() {
		return "mode?"
	}
	return names[m]
}

// Modes returns every machine organisation, in declaration order. Seam
// exhaustiveness tests (mode round trip, fault matrix) range over this so
// a future mode cannot silently miss a layer.
func Modes() []Mode {
	return []Mode{ModeBase, ModeBase2, ModeSRT, ModeLockstep, ModeCRT, ModeSRTR, ModeAdaptive}
}

// ModeNames lists the names of ms, comma-separated, for usage strings and
// error messages.
func ModeNames(ms []Mode) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// ParseMode maps a mode name to its Mode: the inverse of String.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want %s)", s, ModeNames(Modes()))
}

func (m Mode) valid() bool { return m >= ModeBase && m <= ModeAdaptive }

// MarshalText spells the mode by name, so JSON carries "srt", not 2.
func (m Mode) MarshalText() ([]byte, error) {
	if !m.valid() {
		return nil, fmt.Errorf("sim: unknown mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a mode name with ParseMode.
func (m *Mode) UnmarshalText(b []byte) error {
	p, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = p
	return nil
}

// Spec describes one simulation.
type Spec struct {
	Mode     Mode
	Programs []string
	// Budget is measured committed instructions per logical program (per
	// leading copy), not counting warmup.
	Budget uint64
	// Warmup is committed instructions executed before measurement starts
	// (caches and predictors warm; statistics reset), as in §6.2.
	Warmup uint64

	Config pipeline.Config

	// PSR enables preferential space redundancy (§4.5). The paper enables
	// it for all results after Figure 7.
	PSR bool
	// PerThreadSQ gives each hardware thread a private store queue (§4.2).
	PerThreadSQ bool
	// NoStoreComparison disables output comparison (Figure 6's SRT+nosc).
	NoStoreComparison bool
	// CheckerLatency is the lockstep checker delay (0 = Lock0, 8 = Lock8).
	CheckerLatency uint64
	// SlackFetch enables the original-SRT slack fetch policy (ablation).
	SlackFetch uint64

	// StopOnDetection ends the run at the first detected fault. In SRTR
	// mode a detection first triggers rollback; the run only stops on a
	// detection the machine cannot recover from.
	StopOnDetection bool

	// CheckpointInterval is the SRTR checkpoint capture period in cycles
	// (0 = defaultCheckpointInterval, 1024: the fault engine's snapshot
	// grid). Checkpoints are taken
	// on absolute multiples of the interval so independently built and
	// mid-flight-restored machines capture at identical cycles.
	CheckpointInterval uint64
	// MaxRecoveries bounds rollbacks per run (0 = 8); past it, detections
	// behave as in SRT.
	MaxRecoveries int
	// AdaptiveThreshold is the ModeAdaptive protection cutoff θ in [0,1]:
	// an instruction is protected iff its normalised live-in register
	// count reaches θ and its destination is not provably masked. θ <= 0
	// protects everything (bit-identical to SRT).
	AdaptiveThreshold float64

	// MaxCycles caps the run (0 = derived from the budget).
	MaxCycles uint64

	// VM selects the functional engine's interpreter for every hardware
	// thread context. Dispatch is timing-invariant — outcomes are
	// byte-identical between variants — so it is deliberately not part of
	// the rmtd wire contract or its canonical cache keys.
	VM vm.Config
}

// Validate reports whether Build can assemble the machine s describes: a
// known mode, at least one program, every program a known kernel, a
// Config whose cache geometry the pipeline can build (pipeline.Config's
// Validate), and in adaptive mode a threshold θ that is a number no
// greater than 1. Build (and so Restore) calls it first.
func (s Spec) Validate() error {
	if !s.Mode.valid() {
		return fmt.Errorf("sim: unknown mode %d", int(s.Mode))
	}
	if len(s.Programs) == 0 {
		return fmt.Errorf("sim: no programs")
	}
	for _, p := range s.Programs {
		if !progen.Known(p) {
			return fmt.Errorf("sim: unknown kernel %q (registry kernels, or generated kernels as \"gen:<seed>\")", p)
		}
	}
	if th := s.AdaptiveThreshold; s.Mode == ModeAdaptive && (math.IsNaN(th) || math.IsInf(th, 0) || th > 1) {
		return fmt.Errorf("sim: adaptive threshold %v is not a number no greater than 1", th)
	}
	return s.Config.Validate()
}

// Canonical returns s with every mode knob in one spelling per meaning:
// knobs the mode ignores are zeroed (CheckerLatency outside lockstep,
// AdaptiveThreshold outside adaptive, CheckpointInterval and
// MaxRecoveries outside SRTR), an adaptive θ <= 0 (including -0) becomes 0,
// and SRTR's zero defaults become the values the run uses. Canonical
// specs build identical machines to the specs they came from, and two
// valid specs are the same experiment iff their canonical forms are equal.
func (s Spec) Canonical() Spec {
	if s.Mode != ModeLockstep {
		s.CheckerLatency = 0
	}
	if s.Mode != ModeAdaptive || s.AdaptiveThreshold <= 0 {
		s.AdaptiveThreshold = 0
	}
	if s.Mode != ModeSRTR {
		s.CheckpointInterval, s.MaxRecoveries = 0, 0
	} else {
		if s.CheckpointInterval == 0 {
			s.CheckpointInterval = defaultCheckpointInterval
		}
		if s.MaxRecoveries == 0 {
			s.MaxRecoveries = defaultMaxRecoveries
		}
	}
	return s
}
