// Command perfbench is the repository's host-time benchmark: how long the
// simulator and the glsimd job server take to produce the paper's results,
// end to end and layer by layer.
//
// One invocation runs one workload (or all three, one after another, with
// -workload all) for a fixed span of seconds and prints, as its last line,
// one JSON object with the keys correct, attempted, failed and metrics.
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 the run is split into untraced and traced rounds and
// the metrics are the per-layer ones. -steady N re-runs this binary N times
// on one workload and reports the spread of every metric.
//
// See README.md in this directory for the workloads, the metrics and how
// to compare two commits on one host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A scenario is one workload: one fixed unit of work per round. Rounds
// repeat until the run's span is used; the first is a warm-up and is not
// measured.
type scenario struct {
	name string
	// round runs one unit of work. traced installs the G-line wrapper and
	// the runner timers; the CPU profile is started by the caller.
	round func(r *runner, traced bool) *round
}

var scenarios = []scenario{
	// All-to-one CSW barrier contention at 32 cores: NoC router stepping
	// and coherence atomics dominate, the G-line network only idles. Not
	// in BENCHMARK.json: on a shared VM it could not be shown steady.
	{"hotspot-csw", hotspotRound},
	// Six Fig. 6/7 kernels with the G-line barrier: op-dense programs,
	// active G-line ticks, spread-out traffic.
	{"kernels-gl", kernelsRound},
	// In-process glsimd over loopback: a half-cached cold job, cached
	// resubmits and cell GETs.
	{"glsimd-sweep", servedRound},
}

func findScenario(name string) (scenario, bool) {
	for _, w := range scenarios {
		if w.name == name {
			return w, true
		}
	}
	return scenario{}, false
}

// runner carries one workload run's inputs and its operation ledger.
type runner struct {
	seed      int64
	attempted int
	failed    int
	// ref holds the first round's fingerprints; later rounds must match
	// them, and so must the committed table when the seed is in it.
	ref map[string]string
}

// fail records a failed operation with its reason on stderr.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// op counts one attempted operation and records err as its failure.
func (r *runner) op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

// round is the record of one unit of work. Untraced rounds take yardstick
// readings between the parts they time (see yardstick.go), and each part
// keeps its own timings, so that it can be scaled by the readings on
// either side of it.
type round struct {
	parts  []part    // parts[i] lies between yard[i-1] and yard[i]
	yard   []float64 // yardstick readings, untraced rounds only
	cycles uint64
	allocB uint64 // heap bytes allocated in the timed part
	fps    map[string]string
	layers *layerCounts // traced rounds only
}

// part holds what a round timed between two yardstick readings.
type part struct {
	setupS float64   // process CPU time in set-up calls
	wallS  float64   // the timed part
	simCPU float64   // process CPU time spent simulating the round's cycles
	coldS  float64   // the cold job; on the simulation workloads, System.Run
	hitMs  []float64 // one per cached job, or per spec-resolution batch
	getMs  []float64 // one per single-cell read, or per report encoding
}

// at is the part being timed: the one after the latest reading.
func (rd *round) at() *part {
	if len(rd.parts) == 0 {
		rd.parts = append(rd.parts, part{})
	}
	return &rd.parts[len(rd.parts)-1]
}

// sum adds f over the round's parts.
func (rd *round) sum(f func(*part) float64) float64 {
	var s float64
	for i := range rd.parts {
		s += f(&rd.parts[i])
	}
	return s
}

// samples joins f's samples over the round's parts.
func (rd *round) samples(f func(*part) []float64) []float64 {
	var v []float64
	for i := range rd.parts {
		v = append(v, f(&rd.parts[i])...)
	}
	return v
}

func (rd *round) wallS() float64 { return rd.sum(func(p *part) float64 { return p.wallS }) }

func main() {
	name := flag.String("workload", "", "workload: hotspot-csw, kernels-gl, glsimd-sweep or all")
	seed := flag.Int64("seed", 0, "workload seed, passed only through Config.WorkloadSeed or the job spec's seed=")
	seconds := flag.Int("seconds", 20, "span of one run in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	steady := flag.Int("steady", 0, "re-run this binary N times with seeds 1..N and report each metric's spread")
	flag.Parse()

	if *steady > 0 {
		if err := steadyCheck(*name, *steady, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var run []scenario
	if *name == "all" {
		run = scenarios
	} else if w, ok := findScenario(*name); ok {
		run = []scenario{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res := runScenario(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if len(run) > 1 {
			fmt.Printf("# %s %s\n", w.name, mustJSON(res))
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Metrics = res.Metrics
	}
	if len(run) > 1 {
		// Metrics are per workload; the combined line keeps only the
		// ledger, which is what a multi-workload run is checked by.
		total.Metrics = map[string]metric{}
	}
	fmt.Println(mustJSON(total))
	if !total.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// runScenario runs rounds of w for span and reduces them to metrics. An
// untraced run measures every round after the warm-up; a traced run gives
// the first part of its span to untraced rounds, the baseline for the
// tracing overhead, and the rest to traced rounds under the CPU profile.
func runScenario(w scenario, seed int64, span time.Duration, traced bool) result {
	r := &runner{seed: seed}
	// Every workload runs on one P. With two Ps on a 2-vCPU VM, each
	// hand-off between goroutines (the simulator's op handshake, the HTTP
	// client and server) could wake a thread on the other vCPU, and the
	// time that took varied with the host's load: rounds varied by ±15 %
	// within one run and run medians by up to 20 % between runs. On one P
	// both fell to a few percent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fmt.Printf("# host %s %s\n", w.name, mustJSON(hostIdentity()))
	start := now()
	w.round(r, false) // warm-up: heap growth, lazy runtime set-up
	warm := now().Sub(start)

	untracedEnd := span
	if traced {
		untracedEnd = span / 2
	}
	var plain, timed []*round
	var last time.Duration = warm
	// A round starts only when it is expected to end inside its phase,
	// so a run lasts about span whatever the round length.
	for len(plain) < 1 || now().Sub(start)+last <= untracedEnd {
		t := now()
		plain = append(plain, w.round(r, false))
		last = now().Sub(t)
	}
	var prof *layerProfile
	if traced {
		prof = startProfile()
		for len(timed) < 2 || now().Sub(start)+last <= span {
			t := now()
			timed = append(timed, w.round(r, true))
			last = now().Sub(t)
		}
		prof.stop()
	}

	res := result{Metrics: map[string]metric{}}
	if traced {
		layerMetrics(w.name, r, plain, timed, prof, res.Metrics)
	} else {
		endToEnd(plain, res.Metrics)
	}
	for k, v := range res.Metrics {
		// A run whose operations failed may have no samples; its failures
		// already make it incorrect, and JSON has no NaN.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Metrics[k] = metric{0, v.Unit}
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d rounds=%d traced=%d attempted=%d failed=%d\n",
		w.name, seed, len(plain), len(timed), r.attempted, r.failed)
	return res
}

// endToEnd reduces measured rounds to the end-to-end metrics: medians over
// rounds for per-round quantities, p50 latencies over every sample of the
// run, and p99 latencies per round (each round has at least ten samples
// beyond its p99) with the median over rounds reported, so that a burst
// of host noise in one round does not set the run's tail. Each part of
// a round is first brought to the reference speed by the yardstick
// readings on either side of it (see scaleRound); the unscaled metrics go
// to standard error.
func endToEnd(rounds []*round, m map[string]metric) {
	raw := map[string]metric{}
	reduceRounds(rounds, raw)
	scaled := make([]*round, len(rounds))
	walls := make([]string, len(rounds))
	var hits, gets, yards int
	for i, rd := range rounds {
		scaled[i] = scaleRound(rd)
		walls[i] = fmt.Sprintf("%.3f/%.3f", rd.wallS(), scaled[i].wallS())
		hits += len(rd.samples(func(p *part) []float64 { return p.hitMs }))
		gets += len(rd.samples(func(p *part) []float64 { return p.getMs }))
		yards += len(rd.yard)
	}
	reduceRounds(scaled, m)
	fmt.Fprintf(os.Stderr, "perfbench: samples: rounds=%d hit_jobs=%d cell_gets=%d yardstick_readings=%d; wall_s by round, unscaled/scaled: %s\n",
		len(rounds), hits, gets, yards, strings.Join(walls, " "))
	fmt.Fprintf(os.Stderr, "perfbench: unscaled: %s\n", mustJSON(raw))
}

// scaleRound returns rd with each part's timings brought to the reference
// speed: multiplied by yardRefS over the mean of the readings taken just
// before and just after the part.
func scaleRound(rd *round) *round {
	s := *rd
	s.parts = make([]part, len(rd.parts))
	for i, p := range rd.parts {
		var sum float64
		var n int
		for _, j := range []int{i - 1, i} {
			if j >= 0 && j < len(rd.yard) {
				sum += rd.yard[j]
				n++
			}
		}
		k := yardRefS / (sum / float64(n))
		mul := func(v []float64) []float64 {
			out := make([]float64, len(v))
			for j, x := range v {
				out[j] = x * k
			}
			return out
		}
		s.parts[i] = part{p.setupS * k, p.wallS * k, p.simCPU * k, p.coldS * k, mul(p.hitMs), mul(p.getMs)}
	}
	return &s
}

// reduceRounds reduces rounds to the end-to-end metrics.
func reduceRounds(rounds []*round, m map[string]metric) {
	pick := func(f func(*round) float64) float64 {
		v := make([]float64, len(rounds))
		for i, rd := range rounds {
			v[i] = f(rd)
		}
		return median(v)
	}
	total := func(f func(*part) float64) float64 {
		return pick(func(rd *round) float64 { return rd.sum(f) })
	}
	hitMs := func(p *part) []float64 { return p.hitMs }
	getMs := func(p *part) []float64 { return p.getMs }
	var hits, gets []float64
	for _, rd := range rounds {
		hits = append(hits, rd.samples(hitMs)...)
		gets = append(gets, rd.samples(getMs)...)
	}
	m["setup_s"] = metric{total(func(p *part) float64 { return p.setupS }), "s"}
	m["wall_s"] = metric{total(func(p *part) float64 { return p.wallS }), "s"}
	m["sim_cycles_per_s"] = metric{pick(func(rd *round) float64 {
		return float64(rd.cycles) / rd.sum(func(p *part) float64 { return p.simCPU })
	}), "1/s"}
	m["alloc_mb"] = metric{pick(func(rd *round) float64 { return float64(rd.allocB) / 1e6 }), "MB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	m["cold_job_s"] = metric{total(func(p *part) float64 { return p.coldS }), "s"}
	m["hit_job_p50_ms"] = metric{percentile(hits, 50), "ms"}
	m["hit_job_p99_ms"] = metric{pick(func(rd *round) float64 { return percentile(rd.samples(hitMs), 99) }), "ms"}
	m["cell_get_p50_ms"] = metric{percentile(gets, 50), "ms"}
	m["cell_get_p99_ms"] = metric{pick(func(rd *round) float64 { return percentile(rd.samples(getMs), 99) }), "ms"}
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v (NaN when empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// checkFingerprints compares one round's cell fingerprints with the first
// round's and, for seeds in the committed table, with the table. Each
// mismatching cell is a failed operation. New seeds print their
// fingerprints so two commits can be compared by hand.
func (r *runner) checkFingerprints(wl string, fps map[string]string) {
	if r.ref == nil {
		r.ref = fps
		want, known := expected[wl][r.seed]
		for _, l := range sortedKeys(fps) {
			if !known {
				fmt.Printf("# fingerprint %s seed=%d %s %s\n", wl, r.seed, l, fps[l])
			} else if want[l] != fps[l] {
				r.fail("%s seed=%d %s: fingerprint %s, table has %q", wl, r.seed, l, fps[l], want[l])
			}
		}
		if known && len(want) != len(fps) {
			r.fail("%s seed=%d: %d cells, table has %d", wl, r.seed, len(fps), len(want))
		}
		return
	}
	for _, l := range sortedKeys(fps) {
		if r.ref[l] != fps[l] {
			r.fail("%s seed=%d %s: fingerprint %s, first round had %s", wl, r.seed, l, fps[l], r.ref[l])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
