package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/sim"
)

// host identifies the machine and build a result came from, so results
// from two hosts are never compared as if the code had changed.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func hostIdentity() host {
	p := sim.BuildProvenance()
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GitSHA:     p.VCSRevision,
		GitDirty:   p.VCSModified,
	}
	if h.GitSHA == "" {
		h.GitSHA = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

var memSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	metrics.Read(memSamples[:1])
	return memSamples[0].Value.Uint64()
}

// gcCycles is the number of completed garbage-collection cycles.
func gcCycles() uint64 {
	metrics.Read(memSamples[1:])
	return memSamples[1].Value.Uint64()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyCheck runs this binary n times on one workload, with seeds 1..n,
// and prints each metric's median, quartiles and (Q3-Q1)/median. An
// end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
// flagged, and the check then exits non-zero.
func steadyCheck(wl string, n, seconds, trace int) error {
	if _, ok := findScenario(wl); !ok {
		return fmt.Errorf("-steady needs one -workload, got %q", wl)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: steady %s run %d/%d: %s\n", wl, seed, n, mustJSON(res.Metrics))
	}
	names := sortedKeys(values)
	fmt.Printf("steadiness of %s over %d runs (seeds 1..%d, %d s each, trace %d)\n", wl, n, n, seconds, trace)
	fmt.Printf("%-26s %14s %14s %14s %8s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "unit")
	flagged := 0
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := math.NaN()
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		flag, bound := "", "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case !(spread <= b):
				flag = "  WIDER THAN BOUND"
				flagged++
			case spread > b/3:
				flag = "  above bound/3"
			}
		}
		fmt.Printf("%-26s %14.6g %14.6g %14.6g %8.4f %7s %s%s\n", k, q1, q2, q3, spread, bound, units[k], flag)
	}
	if flagged > 0 {
		return fmt.Errorf("%d end-to-end metric(s) spread wider than their bound", flagged)
	}
	return nil
}
