package main

import "testing"

// TestSpeedFactor: the scale follows the median calibration, so one slow
// calibration does not move it.
func TestSpeedFactor(t *testing.T) {
	if f := speedFactor([]float64{refCalibMs / 2, refCalibMs / 2, 4 * refCalibMs}); f != 2 {
		t.Errorf("host twice as fast as the reference: factor %v, want 2", f)
	}
	if f := speedFactor([]float64{refCalibMs}); f != 1 {
		t.Errorf("reference host: factor %v, want 1", f)
	}
}

// TestCalibKernelFixed: the kernel does the same work every time, so two
// calibrations compare the host and nothing else.
func TestCalibKernelFixed(t *testing.T) {
	for lane := 0; lane < parallelism; lane++ {
		if a, b := calibKernel(lane), calibKernel(lane); a != b {
			t.Errorf("lane %d: %d then %d", lane, a, b)
		}
	}
	ms := calibrate()
	if len(ms) != calibReps || ms[0] <= 0 {
		t.Errorf("calibrate: %v ms", ms)
	}
}
