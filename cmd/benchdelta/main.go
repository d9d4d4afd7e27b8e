// Command benchdelta compares two BENCH_<date>.json snapshots produced by
// `make bench-json` and prints a per-benchmark delta table: time and
// allocations per op, old → new, with the relative change. It is the
// regression-reading companion to the alloc gates: the gates pin the
// steady-state floor at zero, benchdelta shows the trend of everything
// else.
//
// Usage:
//
//	benchdelta [-fail-above <pct>] OLD.json NEW.json
//
// Snapshots are either the current object form ({git_sha, generated_at,
// host, results}) or the legacy bare array of results; both load. A missing
// OLD baseline is not an error — the first snapshot of a repo has nothing
// to diff against — so benchdelta says so and exits 0.
//
// The host object (CPU model, nproc, GOMAXPROCS, Go version) says which
// machine took the numbers. A snapshot without one — every legacy
// snapshot — reads as host unknown. When the two hosts differ or either is
// unknown, benchdelta warns that the deltas may measure the machines
// rather than the code.
//
// With `-fail-above <pct>`, any benchmark whose time per op regressed by
// more than pct percent fails the run — the CI gate mode. The gate needs
// both snapshots from one known host: otherwise it refuses to judge and
// fails with a stated error after printing the table. Without the flag, any
// deltas (including regressions — judging them is the reader's job) exit 0.
//
// Exit status: 0 on success, 1 when -fail-above tripped, 2 on usage or
// parse errors and on a gate refused for a host mismatch. Benchmarks
// present in only one file are listed as added/removed; they never trip
// the gate (no pair to compare).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strings"
)

// result mirrors one benchmark entry of a BENCH_<date>.json snapshot.
type result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// host identifies the machine a snapshot was taken on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (h *host) String() string {
	if h == nil {
		return "unknown"
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
}

// snapshot is one BENCH_<date>.json document: provenance (which commit,
// when and on which host the numbers were taken) plus the results. Legacy
// snapshots were a bare result array with no provenance; load normalizes
// both shapes here.
type snapshot struct {
	GitSHA      string   `json:"git_sha"`
	GeneratedAt string   `json:"generated_at"`
	Host        *host    `json:"host"`
	Results     []result `json:"results"`
}

// errRegression marks a -fail-above trip: exit 1, distinct from usage and
// parse errors (exit 2).
var errRegression = errors.New("time regression above threshold")

// errHostMismatch marks a -fail-above gate refused because the snapshots
// do not come from one known host.
var errHostMismatch = errors.New("refusing to gate across hosts")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchdelta: %v\n", err)
		if errors.Is(err, errRegression) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs2 := flag.NewFlagSet("benchdelta", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	failAbove := fs2.Float64("fail-above", -1,
		"fail (exit 1) when any benchmark's ns/op regressed by more than this percentage; negative disables")
	if err := fs2.Parse(args); err != nil {
		return fmt.Errorf("usage: benchdelta [-fail-above <pct>] OLD.json NEW.json")
	}
	paths := fs2.Args()
	if len(paths) != 2 {
		return fmt.Errorf("usage: benchdelta [-fail-above <pct>] OLD.json NEW.json")
	}
	oldSnap, err := load(paths[0])
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// First snapshot: nothing to diff against is normal, not a
			// failure.
			fmt.Fprintf(out, "benchdelta: no baseline %s; nothing to compare yet\n", paths[0])
			return nil
		}
		return err
	}
	newSnap, err := load(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdelta %s -> %s\n", describe(paths[0], oldSnap), describe(paths[1], newSnap))
	sameHost := oldSnap.Host != nil && newSnap.Host != nil && *oldSnap.Host == *newSnap.Host
	if !sameHost {
		fmt.Fprintf(out, "warning: snapshots are not from one known host (old: %s; new: %s); deltas may measure the machines, not the code\n",
			oldSnap.Host, newSnap.Host)
	}
	fmt.Fprintf(out, "%-40s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δtime", "old allocs", "new allocs", "Δallocs")
	oldBy := map[string]result{}
	for _, r := range oldSnap.Results {
		oldBy[r.Name] = r
	}
	seen := map[string]bool{}
	var regressed []string
	worst, worstPct := "", 0.0
	for _, n := range newSnap.Results {
		seen[n.Name] = true
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(out, "%-40s %14s %14.0f %8s %12s %12.0f %8s\n",
				n.Name, "-", n.NsPerOp, "added", "-", n.AllocsPerOp, "added")
			continue
		}
		fmt.Fprintf(out, "%-40s %14.0f %14.0f %8s %12.0f %12.0f %8s\n",
			n.Name, o.NsPerOp, n.NsPerOp, pct(o.NsPerOp, n.NsPerOp),
			o.AllocsPerOp, n.AllocsPerOp, pct(o.AllocsPerOp, n.AllocsPerOp))
		if *failAbove >= 0 && o.NsPerOp > 0 {
			if p := 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp; p > *failAbove {
				regressed = append(regressed, n.Name)
				if p > worstPct || worst == "" {
					worst, worstPct = n.Name, p
				}
			}
		}
	}
	for _, o := range oldSnap.Results {
		if !seen[o.Name] {
			fmt.Fprintf(out, "%-40s %14.0f %14s %8s\n", o.Name, o.NsPerOp, "-", "removed")
		}
	}
	if *failAbove >= 0 && !sameHost {
		return fmt.Errorf("%w: -fail-above needs both snapshots from one known host (old: %s; new: %s)",
			errHostMismatch, oldSnap.Host, newSnap.Host)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%w: %d benchmark(s) slower by more than %.1f%% (worst: %s %+.1f%%)",
			errRegression, len(regressed), *failAbove, worst, worstPct)
	}
	return nil
}

// describe renders one side of the comparison header: the path plus the
// snapshot's provenance when it carries any.
func describe(path string, s snapshot) string {
	var tags []string
	if s.GitSHA != "" && s.GitSHA != "unknown" {
		sha := s.GitSHA
		if len(sha) > 12 {
			sha = sha[:12]
		}
		tags = append(tags, sha)
	}
	if s.GeneratedAt != "" {
		tags = append(tags, s.GeneratedAt)
	}
	if len(tags) == 0 {
		return path
	}
	return fmt.Sprintf("%s (%s)", path, strings.Join(tags, ", "))
}

// load reads one snapshot, accepting both the object form and the legacy
// bare-array form (sniffed from the first non-space byte).
func load(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		var rs []result
		if err := json.Unmarshal(data, &rs); err != nil {
			return snapshot{}, fmt.Errorf("%s: %w", path, err)
		}
		return snapshot{Results: rs}, nil
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// pct renders the relative change from old to new as a signed percentage,
// or "-" when the baseline is zero (no meaningful ratio).
func pct(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "0%"
		}
		return "-"
	}
	p := 100 * (new - old) / old
	if math.Abs(p) < 0.05 {
		return "0%"
	}
	return fmt.Sprintf("%+.1f%%", p)
}
