package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const newSnapshot = `{
  "git_sha": "0123456789abcdef0123456789abcdef01234567",
  "generated_at": "2026-08-08T12:00:00Z",
  "results": [
    {"name":"BenchmarkRun-8","iters":100,"ns_per_op":900,"bytes_per_op":0,"allocs_per_op":0},
    {"name":"BenchmarkNew-8","iters":100,"ns_per_op":50,"bytes_per_op":0,"allocs_per_op":1}
  ]
}`

const legacySnapshot = `[
  {"name":"BenchmarkRun-8","iters":100,"ns_per_op":1000,"bytes_per_op":0,"allocs_per_op":0},
  {"name":"BenchmarkOld-8","iters":100,"ns_per_op":10,"bytes_per_op":0,"allocs_per_op":0}
]`

// TestMissingBaselineIsNotAnError pins the first-snapshot path: no OLD file
// means nothing to compare, a friendly message and success.
func TestMissingBaselineIsNotAnError(t *testing.T) {
	dir := t.TempDir()
	newPath := write(t, dir, "new.json", newSnapshot)
	var out strings.Builder
	err := run([]string{filepath.Join(dir, "does-not-exist.json"), newPath}, &out)
	if err != nil {
		t.Fatalf("missing baseline returned error: %v", err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Errorf("output does not explain the missing baseline:\n%s", out.String())
	}
}

// TestLegacyArrayAndProvenanceHeader diffs a legacy bare-array snapshot
// against the current object form and checks the delta table plus the
// provenance rendered in the header.
func TestLegacyArrayAndProvenanceHeader(t *testing.T) {
	dir := t.TempDir()
	oldPath := write(t, dir, "old.json", legacySnapshot)
	newPath := write(t, dir, "new.json", newSnapshot)
	var out strings.Builder
	if err := run([]string{oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"0123456789ab",         // truncated git SHA of the new snapshot
		"2026-08-08T12:00:00Z", // its timestamp
		"-10.0%",               // 1000 -> 900 ns/op
		"added",                // BenchmarkNew only in new
		"removed",              // BenchmarkOld only in old
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// hostA and hostB are two machines' host objects as make bench-json
// stamps them.
const (
	hostA = `"host": {"cpu": "Intel(R) Xeon(R) Processor", "nproc": 2, "gomaxprocs": 2, "go": "go1.24.0"}`
	hostB = `"host": {"cpu": "AMD EPYC 7B13", "nproc": 8, "gomaxprocs": 8, "go": "go1.24.0"}`
)

// hostedOld is legacySnapshot's results in the object form, taken on host.
func hostedOld(host string) string {
	return `{` + host + `, "results": ` + legacySnapshot + `}`
}

// TestFailAbove pins the CI gate mode: a regression past the threshold
// returns errRegression (exit 1 in main), one within it passes, and
// added/removed benchmarks never trip the gate. Both snapshots come from
// one host, as the gate requires.
func TestFailAbove(t *testing.T) {
	dir := t.TempDir()
	oldPath := write(t, dir, "old.json", hostedOld(hostA))
	// BenchmarkRun: 1000 -> 1200 ns/op = +20%.
	newPath := write(t, dir, "new.json", `{
  `+hostA+`,
  "results": [
    {"name":"BenchmarkRun-8","iters":100,"ns_per_op":1200,"bytes_per_op":0,"allocs_per_op":0},
    {"name":"BenchmarkNew-8","iters":100,"ns_per_op":50,"bytes_per_op":0,"allocs_per_op":1}
  ]
}`)
	var out strings.Builder
	err := run([]string{"-fail-above", "10", oldPath, newPath}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("+20%% over a 10%% threshold returned %v, want errRegression", err)
	}
	for _, want := range []string{"BenchmarkRun-8", "+20.0%"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error does not name %q: %v", want, err)
		}
	}
	// The full delta table still prints before the verdict.
	if !strings.Contains(out.String(), "added") {
		t.Errorf("gate mode suppressed the delta table:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-fail-above", "25", oldPath, newPath}, &out); err != nil {
		t.Errorf("+20%% over a 25%% threshold failed: %v", err)
	}
	out.Reset()
	if err := run([]string{oldPath, newPath}, &out); err != nil {
		t.Errorf("no threshold still failed: %v", err)
	}
}

// TestHostIdentityGatesFailAbove: snapshots from different hosts, or with
// one host unknown (a legacy snapshot), still print their table with a
// warning, but -fail-above refuses to gate them with a stated error —
// even when no benchmark regressed.
func TestHostIdentityGatesFailAbove(t *testing.T) {
	dir := t.TempDir()
	newPath := write(t, dir, "new.json", `{`+hostA+`, "results": [
    {"name":"BenchmarkRun-8","iters":100,"ns_per_op":900,"bytes_per_op":0,"allocs_per_op":0}
  ]}`)
	cases := map[string]string{
		"other host":   write(t, dir, "other.json", hostedOld(hostB)),
		"legacy array": write(t, dir, "legacy.json", legacySnapshot),
		"no host":      write(t, dir, "nohost.json", `{"results": `+legacySnapshot+`}`),
	}
	for name, oldPath := range cases {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{oldPath, newPath}, &out); err != nil {
				t.Fatalf("ungated comparison failed: %v", err)
			}
			for _, want := range []string{"warning", "-10.0%"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			out.Reset()
			err := run([]string{"-fail-above", "50", oldPath, newPath}, &out)
			if !errors.Is(err, errHostMismatch) {
				t.Fatalf("gate across hosts returned %v, want errHostMismatch", err)
			}
			if !strings.Contains(err.Error(), "Intel(R) Xeon(R) Processor") {
				t.Errorf("refusal does not name the hosts: %v", err)
			}
			if !strings.Contains(out.String(), "BenchmarkRun-8") {
				t.Errorf("refused gate suppressed the delta table:\n%s", out.String())
			}
		})
	}

	// One known host on both sides: no warning, and the gate judges.
	var out strings.Builder
	if err := run([]string{"-fail-above", "50", write(t, dir, "same.json", hostedOld(hostA)), newPath}, &out); err != nil {
		t.Fatalf("same-host gate failed: %v", err)
	}
	if strings.Contains(out.String(), "warning") {
		t.Errorf("same-host comparison warned:\n%s", out.String())
	}
}

func TestUsageAndParseErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"one.json"}, &out); err == nil {
		t.Error("one argument accepted")
	}
	dir := t.TempDir()
	bad := write(t, dir, "bad.json", "{not json")
	good := write(t, dir, "good.json", newSnapshot)
	if err := run([]string{bad, good}, &out); err == nil {
		t.Error("unparsable OLD accepted")
	}
	if err := run([]string{good, bad}, &out); err == nil {
		t.Error("unparsable NEW accepted")
	}
}
