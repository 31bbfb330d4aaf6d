package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// topRow is one function line of `go tool pprof -top -unit=ms`.
type topRow struct {
	Flat, Cum float64 // milliseconds of samples
	Func      string
}

// startProfile starts the CPU profile the traced phase is summarised from.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// pprofTop runs the installed `go tool pprof -top` over a profile of this
// binary with every node kept, so cumulative times exist for every
// function and not only the heaviest.
func pprofTop(profile string) (string, error) {
	bin, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", bin, profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// parseTop reads the function rows and the sample total out of pprof's
// -top report.
func parseTop(report string) (rows []topRow, totalMs float64, err error) {
	sc := bufio.NewScanner(strings.NewReader(report))
	header := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			f := strings.Fields(line[i+len("Total samples = "):])
			if len(f) == 0 {
				return nil, 0, fmt.Errorf("pprof: bad total line %q", line)
			}
			if totalMs, err = parseMs(f[0]); err != nil {
				return nil, 0, err
			}
			continue
		}
		if strings.HasPrefix(line, "flat") {
			header = true
			continue
		}
		if !header || line == "" {
			continue
		}
		// flat flat% sum% cum cum% name...
		f := strings.Fields(line)
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("pprof: bad row %q", line)
		}
		flat, err1 := parseMs(f[0])
		cum, err2 := parseMs(f[3])
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("pprof: bad row %q", line)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, topRow{Flat: flat, Cum: cum, Func: name})
	}
	if totalMs == 0 {
		return nil, 0, fmt.Errorf("pprof: no samples")
	}
	return rows, totalMs, sc.Err()
}

func parseMs(s string) (float64, error) {
	s = strings.TrimSuffix(s, "ms")
	return strconv.ParseFloat(s, 64)
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/pipeline.(*Core).issueStage".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// flatLayers maps a package to the cpu.* share its own (flat) samples
// count toward.
var flatLayers = map[string]string{
	"repro/internal/mem":     "cpu.mem",
	"repro/internal/predict": "cpu.predict",
	"repro/internal/vm":      "cpu.vm",
	"repro/internal/rmt":     "cpu.rmt",
	"repro/internal/snap":    "cpu.snap",
	"repro/internal/server":  "cpu.server",
	"net/http":               "cpu.server",
	"net":                    "cpu.server",
	"net/textproto":          "cpu.server",
	"encoding/json":          "cpu.json",
}

// cumLayers maps a function to the cpu.* share its cumulative samples
// count toward: the pipeline stages as called from Core.Step, and the
// collector's own goroutines and assists.
var cumLayers = map[string][]string{
	"cpu.pipeline.fetch":    {"repro/internal/pipeline.(*Core).fetchStage"},
	"cpu.pipeline.dispatch": {"repro/internal/pipeline.(*Core).dispatchStage"},
	"cpu.pipeline.issue":    {"repro/internal/pipeline.(*Core).issueStage"},
	"cpu.pipeline.retire":   {"repro/internal/pipeline.(*Core).retireStage"},
	"cpu.pipeline.drain":    {"repro/internal/pipeline.(*Core).drainStores"},
	"cpu.gc":                {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"},
}

// isSnapshotFunc reports whether fn is part of the snapshot layer: the
// snap codec, or a per-package serializer (the snapshot.go files name
// theirs SnapshotTo/RestoreFrom, Snapshot/RestoreState/Restore).
func isSnapshotFunc(fn string) bool {
	i := strings.LastIndex(fn, ".")
	name := fn[i+1:]
	return strings.HasPrefix(fn, "repro/") &&
		(strings.HasPrefix(name, "Snapshot") || strings.HasPrefix(name, "Restore"))
}

// cpuShares aggregates -top rows into the cpu.* per-layer shares, each a
// fraction of all samples. Flat samples go to their package's layer
// (snapshot serializers to cpu.snap whatever their package); pipeline
// stage and collector shares are cumulative and overlap the flat ones.
func cpuShares(rows []topRow, totalMs float64) map[string]float64 {
	out := map[string]float64{}
	for _, l := range flatLayers {
		out[l] = 0
	}
	byFunc := map[string]float64{}
	for _, r := range rows {
		byFunc[r.Func] = r.Cum
		layer := flatLayers[funcPackage(r.Func)]
		if isSnapshotFunc(r.Func) {
			layer = "cpu.snap"
		}
		if layer != "" {
			out[layer] += r.Flat / totalMs
		}
	}
	for layer, fns := range cumLayers {
		out[layer] = 0
		for _, fn := range fns {
			out[layer] += byFunc[fn] / totalMs
		}
	}
	return out
}
