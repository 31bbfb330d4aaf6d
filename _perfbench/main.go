// Command perfbench is the repository's benchmark. It runs one of three
// workloads — figures, campaign or rmtd — for a fixed time in this
// process, checks the program's outputs, and prints a JSON result as the
// last line of standard output:
//
//	perfbench --workload figures --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run, its timings scaled to a reference host speed (calib.go). With
// --trace 1 the run is split into an untraced and a traced phase (spans,
// MemStats deltas and a CPU profile), followed by the layer probes, and
// the result holds the per-layer metrics. Every number comes
// from timing the benchmark's own calls into the program's public
// functions; the program itself is not instrumented. Run it from the
// repository root, through run.py, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, scaled to the reference host. Each set-up warms its workload
// with most of a second of work on a 2-core host, so a scheduler or GC
// hiccup is a small share of it.
const setupRepeats = 7

// session is one set-up workload.
type session interface {
	// run drives the workload's closed loop until deadline, recording into
	// ph. A phase calls it once per slice, so it picks up where the
	// previous slice of ph left off. tr is nil outside the traced phase.
	run(deadline time.Time, tr *tracer, ph *phase)
	// verify runs the output checks that sit outside the timed window.
	verify(ph *phase)
	// details returns the workload's own figures for an untraced phase
	// that the end-to-end metrics do not already carry (rmtd hit and miss
	// latency and request mix, paper_eff_abs_err).
	details(ph *phase) []figure
	// layers adds the per-layer metrics of the traced phase t and of the
	// layer probes this workload owns.
	layers(t *phase, out map[string]float64) error
	close() error
}

// figure is one named measurement with its unit and sample count.
type figure struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// warmer is a session that warms up, untimed, after its set-up and
// before its first window.
type warmer interface {
	warm() error
}

// latencyCalibrator is a session whose op latency is not compute-bound, so
// measure scales its op times by a calibration of their own kind, taken
// next to each compute calibration, instead of by calib.go's kernel.
type latencyCalibrator interface {
	// roundTrip returns one calibration sample and its value on the
	// reference host, both in milliseconds.
	roundTrip() (ms, refMs float64)
}

type workload struct {
	name  string
	setup func(seed uint64) (session, error)
}

var workloads = []workload{
	{"figures", setupFigures},
	{"campaign", setupCampaign},
	{"rmtd", setupRmtd},
}

// phase accumulates one timed window.
type phase struct {
	mu                sync.Mutex
	wall              time.Duration // the slices' wall time, calibrations excluded
	refWall           float64       // the same in reference-host seconds
	opMs              []float64     // per-op wall time
	refMs             []float64     // per-op time in reference-host ms
	calibMs           []float64     // the calibrations around the slices
	roundTripMs       []float64     // latencyCalibrator samples around the slices
	started           int           // serial ops started (figure or campaign passes)
	attempted, failed int
	failures          []string // first few failure reasons
	work              float64  // simulations, trials or requests completed
	simCycles         float64
	mallocs           uint64
	peakHeap          uint64
	gcCycles          uint32
	gcPauseNs         uint64
}

// note keeps the first few failure reasons for standard error.
func (ph *phase) note(format string, args ...any) {
	ph.mu.Lock()
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
	ph.mu.Unlock()
}

// nextOp numbers the serial ops of a phase from 0.
func (ph *phase) nextOp() int {
	ph.started++
	return ph.started - 1
}

// record counts one attempted operation. A failed one (an error, a
// rejected request or an output-check mismatch) counts toward failed and
// contributes neither latency nor work.
func (ph *phase) record(ok bool, ms, work, simCycles float64) {
	ph.mu.Lock()
	ph.attempted++
	if ok {
		ph.opMs = append(ph.opMs, ms)
		ph.work += work
		ph.simCycles += simCycles
	} else {
		ph.failed++
	}
	ph.mu.Unlock()
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: figures, campaign or rmtd")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload figures|campaign|rmtd --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setupSession sets the workload up setupRepeats times, keeping the last
// session, and returns the median set-up time in reference-host seconds.
func setupSession(w *workload, seed uint64) (session, float64, error) {
	var times []float64
	var s session
	calibMs := calibrate()
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		// Every set-up starts from a collected heap, not from the garbage
		// the previous one left.
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		calibMs = append(calibMs, calibrate()...)
	}
	fmt.Printf("set-up: median %.4f s as measured, calibration median %.3f ms\n", median(times), median(calibMs))
	return s, median(times) * speedFactor(calibMs), nil
}

func runWorkload(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	s, setupS, err := setupSession(w, seed)
	if err != nil {
		return nil, err
	}
	// A failed shutdown after the windows does not change what was
	// measured, so its error is dropped.
	defer s.close()
	if wm, ok := s.(warmer); ok {
		if err := wm.warm(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if !traced {
		ph := measure(s, d, nil)
		s.verify(ph)
		e2e := endToEndValues(ph, setupS)
		printReport(w.name, ph, e2e, s.details(ph))
		return finish(ph, endToEnd, e2e)
	}

	u := measure(s, d/2, nil)
	s.verify(u)
	// The Chrome trace and CPU profile go next to the binary, in the
	// build directory, so nothing lands outside it.
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(filepath.Dir(bin), fmt.Sprintf("%s-seed%d", w.name, seed))
	stop, err := startProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t := measure(s, d/2, tr)
	if err := stop(); err != nil {
		return nil, err
	}
	s.verify(t)
	if err := writeChrome(base+".trace.json", tr.spans); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for _, f := range s.details(u) {
		out[f.Name] = f.Value
	}
	if err := s.layers(t, out); err != nil {
		return nil, err
	}
	top, err := pprofTop(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	rows, total, err := parseTop(top)
	if err != nil {
		return nil, err
	}
	for k, v := range cpuShares(rows, total) {
		out[k] = v
	}
	out["gc.cycles"] = float64(t.gcCycles)
	out["gc.pause_ms"] = float64(t.gcPauseNs) / 1e6
	if p := median(u.refMs); p > 0 {
		out["trace.overhead_pct"] = (median(t.refMs) - p) / p * 100
	}
	printSelfTimes(tr.spans)
	fmt.Printf("trace: %s.trace.json, profile: %s.cpu.pprof\n", base, base)

	both := &phase{attempted: u.attempted + t.attempted, failed: u.failed + t.failed,
		failures: append(u.failures, t.failures...)}
	return finish(both, perLayer, out)
}

// finish assembles the result line, reporting every catalogue metric (a
// layer the workload did not exercise reads 0).
func finish(ph *phase, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	for k := range vals {
		if !hasMetric(defs, k) {
			return nil, fmt.Errorf("metric %s is not in the catalogue", k)
		}
	}
	for _, f := range ph.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	res.Correct = ph.failed == 0 && ph.attempted > 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	return res, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// sliceLen is how long a window runs between two calibrations.
const sliceLen = time.Second

// measure runs one timed window in slices of sliceLen, calibrating before
// and after each, and scales its timings to the reference host: op times
// by the session's round-trip calibration if it has one, all else by
// calib.go's kernel. An op that overruns its slice ends it. It samples
// the live heap every 2 ms for its peak. The live heap is what the last
// completed GC cycle marked, so it follows what the workload retains
// rather than when the collector runs; the peak is the 95th percentile of
// the samples, so the few GC cycles that land on a transient spike do not
// set it (on rmtd the 99th percentile spread 9% from run to run).
func measure(s session, d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	runtime.GC()
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() { peak <- sampleHeap(done) }()
	lc, _ := s.(latencyCalibrator)
	var refRoundTrip float64
	calibrateAll := func() {
		ph.calibMs = append(ph.calibMs, calibrate()...)
		if lc != nil {
			var ms float64
			ms, refRoundTrip = lc.roundTrip()
			ph.roundTripMs = append(ph.roundTripMs, ms)
		}
	}
	calibrateAll()
	end := time.Now().Add(d)
	for t0 := time.Now(); t0.Before(end); t0 = time.Now() {
		stop := t0.Add(sliceLen)
		if end.Before(stop) {
			stop = end
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.run(stop, tr, ph)
		ph.wall += time.Since(t0)
		// Only the slices count: the calibrations allocate too.
		runtime.ReadMemStats(&after)
		ph.mallocs += after.Mallocs - before.Mallocs
		ph.gcCycles += after.NumGC - before.NumGC
		ph.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		calibrateAll()
	}
	f := speedFactor(ph.calibMs)
	ph.refWall = ph.wall.Seconds() * f
	if lc != nil {
		f = refRoundTrip / median(ph.roundTripMs)
	}
	for _, ms := range ph.opMs {
		ph.refMs = append(ph.refMs, ms*f)
	}
	close(done)
	ph.peakHeap = <-peak
	return ph
}

func sampleHeap(done <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var live []float64
	for {
		metrics.Read(sample)
		live = append(live, float64(sample[0].Value.Uint64()))
		select {
		case <-done:
			return uint64(percentile(live, 95))
		case <-tick.C:
		}
	}
}

func endToEndValues(ph *phase, setupS float64) map[string]float64 {
	secs := ph.refWall
	return map[string]float64{
		"setup_s":           setupS,
		"op_ms_p50":         median(ph.refMs),
		"work_per_s":        ph.work / secs,
		"sim_kcycles_per_s": ph.simCycles / 1e3 / secs,
		"peak_heap_mb":      float64(ph.peakHeap) / (1 << 20),
		"allocs_per_op":     float64(ph.mallocs) / float64(max(len(ph.opMs), 1)),
	}
}

// printReport prints the end-to-end metrics with their units and sample
// counts ahead of the result line, plus the op latency at the highest
// percentile that has at least ten samples beyond it.
func printReport(name string, ph *phase, vals map[string]float64, details []figure) {
	fmt.Printf("workload %s: %d ops in %.2fs, %d failed (error_rate %.4f)\n",
		name, len(ph.opMs), ph.wall.Seconds(), ph.failed, float64(ph.failed)/float64(max(ph.attempted, 1)))
	for _, d := range endToEnd {
		n := len(ph.opMs)
		if d.Name == "setup_s" {
			n = setupRepeats
		}
		fmt.Printf("  %-24s %14.4f %-10s n=%d\n", d.Name, vals[d.Name], d.Unit, n)
	}
	if p := tailPercentile(len(ph.refMs)); p > 50 {
		fmt.Printf("  %-24s %14.4f %-10s n=%d\n", fmt.Sprintf("op_ms_p%g", p), percentile(ph.refMs, p), "ms", len(ph.refMs))
	}
	fmt.Printf("  as measured, before scaling to the reference host:\n")
	fmt.Printf("  %-24s %14.4f %-10s n=%d\n", "calib_ms_p50", median(ph.calibMs), "ms", len(ph.calibMs))
	if len(ph.roundTripMs) > 0 {
		fmt.Printf("  %-24s %14.4f %-10s n=%d\n", "round_trip_ms_p50", median(ph.roundTripMs), "ms", len(ph.roundTripMs))
	}
	fmt.Printf("  %-24s %14.4f %-10s n=%d\n", "raw_op_ms_p50", median(ph.opMs), "ms", len(ph.opMs))
	fmt.Printf("  %-24s %14.4f %-10s n=%d\n", "raw_work_per_s", ph.work/ph.wall.Seconds(), "1/s", len(ph.opMs))
	for _, f := range details {
		fmt.Printf("  %-24s %14.4f %-10s n=%d\n", f.Name, f.Value, f.Unit, f.N)
	}
}

// printSelfTimes prints, per span name, the call count, the summed self
// time and the median heap allocations per call.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	count := map[string]int{}
	mallocs := map[string][]float64{}
	for _, s := range spans {
		count[s.Name]++
		mallocs[s.Name] = append(mallocs[s.Name], float64(s.Mallocs))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("traced phase, per span name: calls, self time, median allocs per call")
	for _, n := range names {
		fmt.Printf("  %-32s %7d %10.3fs %12.0f\n", n, count[n], self[n].Seconds(), median(mallocs[n]))
	}
}
