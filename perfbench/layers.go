package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
)

// countSet holds the per-layer counts of one traced round. They are pure
// functions of the simulated inputs, so two traced rounds must agree.
type countSet struct {
	events, cycles, ffCycles      uint64
	packets, flitHops, peakQueue  uint64
	l1Misses, l2Misses            uint64
	cohMessages                   uint64
	cpuOps                        uint64
	glTicks, glActive, glArrivals uint64
	cellsSimulated, cacheHits     uint64
	cacheMisses, flightShared     uint64
}

// layerCounts is one traced round's per-layer record: the counts, and
// the host times the benchmark's own wrappers measured.
type layerCounts struct {
	counts      countSet
	simNewS     float64
	programsS   float64
	setupAllocB float64
	glTickS     float64
	cellRunS    float64
	queueWaitMs float64
}

// Profile classes. Flat CPU samples are charged to the layer owning the
// sampled function's package, except that Go scheduler and garbage
// collector work is charged to its own class whatever called it.
const (
	clsEngine    = "engine"
	clsNoC       = "noc"
	clsCoherence = "coherence"
	clsCPU       = "cpu"
	clsGLine     = "gline"
	clsSched     = "runtime.sched"
	clsGC        = "runtime.gc"
	clsOther     = "other"
)

var layerClasses = []string{clsEngine, clsNoC, clsCoherence, clsCPU, clsGLine, clsSched, clsGC, clsOther}

// packageLayer maps the simulator's packages to the layers they belong
// to. Benchmark programs (workload) and barrier code run on the cpu
// cores' program goroutines, so they are charged to cpu.
var packageLayer = map[string]string{
	"repro/internal/engine":    clsEngine,
	"repro/internal/noc":       clsNoC,
	"repro/internal/coherence": clsCoherence,
	"repro/internal/cache":     clsCoherence,
	"repro/internal/mem":       clsCoherence,
	"repro/internal/cpu":       clsCPU,
	"repro/internal/workload":  clsCPU,
	"repro/internal/barrier":   clsCPU,
	"repro/internal/core":      clsGLine,
}

// schedFrames are the runtime entry points of goroutine hand-off: a
// sample whose runtime frames, from the leaf up, pass through one of
// these is scheduler time.
var schedFrames = []string{
	"runtime.selectgo", "runtime.chansend", "runtime.chanrecv", "runtime.closechan",
	"runtime.gopark", "runtime.goready", "runtime.park_m", "runtime.futex",
	"runtime.findRunnable", "runtime.schedule", "runtime.mcall", "runtime.gogo",
	"runtime.ready", "runtime.wakep", "runtime.notesleep", "runtime.notewakeup",
	"runtime.stealWork", "runtime.runqgrab", "runtime.usleep", "runtime.osyield",
}

// gcFrames mark garbage-collector work anywhere on a sample's stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
}

// layerProfile is a CPU profile of the traced rounds, kept in memory.
type layerProfile struct {
	buf      bytes.Buffer
	gcBefore uint64
	err      error
	// cpuS is the process CPU time between start and stop.
	cpuS float64
	// self is flat CPU time per class; sumNs is every sample's time.
	self  map[string]float64
	sumNs int64
	// simNewS and programsS are the time spent under sim.New and under
	// the workloads' Programs: glsimd-sweep's systems are built inside
	// serve.RunCell, out of the benchmark's reach.
	simNewS, programsS float64
}

func startProfile() *layerProfile {
	p := &layerProfile{gcBefore: gcCycles(), cpuS: cpuSeconds()}
	p.err = pprof.StartCPUProfile(&p.buf)
	return p
}

// profileTolerance is how far the CPU profile's sampled total may be
// from the process CPU time. The profiler samples each thread's CPU time
// at 100 Hz, so over a traced phase of many seconds the two agree to a
// few percent.
const profileTolerance = 0.10

func (p *layerProfile) stop() {
	if p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	p.cpuS = cpuSeconds() - p.cpuS
	p.self = map[string]float64{}
	p.err = decodeProfile(p.buf.Bytes(), func(stack []string, ns int64) {
		s := float64(ns) / 1e9
		p.sumNs += ns
		p.self[classify(stack)] += s
		if onStack(stack, func(f string) bool { return f == "repro/internal/sim.New" }) {
			p.simNewS += s
		}
		if onStack(stack, func(f string) bool {
			return strings.HasPrefix(f, "repro/internal/workload.") && strings.HasSuffix(f, ".Programs")
		}) {
			p.programsS += s
		}
	})
}

func onStack(stack []string, match func(string) bool) bool {
	for _, f := range stack {
		if match(f) {
			return true
		}
	}
	return false
}

// classify charges one sample, given leaf-first function names.
func classify(stack []string) string {
	if onStack(stack, func(f string) bool { return hasPrefixIn(f, gcFrames) }) {
		return clsGC
	}
	for _, f := range stack {
		if pkgOf(f) != "runtime" {
			break
		}
		if hasPrefixIn(f, schedFrames) {
			return clsSched
		}
	}
	if len(stack) > 0 {
		if l, ok := packageLayer[pkgOf(stack[0])]; ok {
			return l
		}
	}
	return clsOther
}

func hasPrefixIn(f string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a Go symbol name such as
// "repro/internal/noc.(*Mesh).Tick".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// decodeProfile reads a gzipped pprof profile.proto and calls sample for
// every sample with its leaf-first function names and its CPU time in
// nanoseconds. Only the fields needed for that are decoded.
func decodeProfile(gz []byte, sample func(stack []string, ns int64)) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		types     []int64 // sample_type string indexes
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function -> name string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("profile: no cpu sample type")
	}
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locLines[l] {
				if n := funcNames[fn]; n >= 0 && int(n) < len(strs) {
					stack = append(stack, strs[n])
				}
			}
		}
		sample(stack, s.vals[cpu])
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, which the encoder
// writes either one value at a time (b nil) or packed into b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, u), b[n:]
	}
	return dst
}

// layerMetrics reduces a traced run to the per-layer metrics, each per
// traced round, and checks the traced run against the untraced one.
func layerMetrics(wl string, r *runner, plain, timed []*round, prof *layerProfile, m map[string]metric) {
	if prof.err != nil {
		r.fail("%s: cpu profile: %v", wl, prof.err)
		prof.self = map[string]float64{}
	}
	walls := func(rs []*round) []float64 {
		v := make([]float64, len(rs))
		for i, rd := range rs {
			v[i] = rd.wallS()
		}
		return v
	}
	overhead := median(walls(timed)) - median(walls(plain))
	fmt.Printf("# tracing overhead %s: traced wall_s %.4f - untraced wall_s %.4f = %.4f s\n",
		wl, median(walls(timed)), median(walls(plain)), overhead)

	// Counts repeat exactly between traced rounds.
	first := timed[0].layers
	for i, rd := range timed[1:] {
		r.attempted++
		if rd.layers.counts != first.counts {
			r.fail("%s: traced round %d counts %+v differ from round 1's %+v", wl, i+2, rd.layers.counts, first.counts)
		}
	}
	// The layer classes partition the samples, so their self times sum to
	// the profile total by construction; what can go wrong is the profile
	// itself. Its total must match the process CPU time over the traced
	// rounds, which getrusage measures independently.
	total := float64(prof.sumNs) / 1e9
	r.attempted++
	if dev := math.Abs(total-prof.cpuS) / prof.cpuS; !(dev <= profileTolerance) {
		r.fail("%s: profile total %.3f s differs from process CPU time %.3f s by %.1f %% (tolerance %.0f %%)",
			wl, total, prof.cpuS, 100*dev, 100*profileTolerance)
	}
	fmt.Printf("# profile %s: %.3f s of samples over %d traced rounds; process CPU time %.3f s\n", wl, total, len(timed), prof.cpuS)

	n := float64(len(timed))
	mean := func(f func(*layerCounts) float64) float64 {
		var s float64
		for _, rd := range timed {
			s += f(rd.layers)
		}
		return s / n
	}
	c := first.counts
	self := func(cls string) float64 { return prof.self[cls] / n }
	perUnit := func(s float64, count uint64) float64 {
		if count == 0 {
			return 0
		}
		return s / float64(count) * 1e9
	}
	stepped := c.cycles - c.ffCycles
	ffRatio := 0.0
	if c.cycles > 0 {
		ffRatio = float64(c.ffCycles) / float64(c.cycles)
	}
	hitRatio := 0.0
	if c.cacheHits+c.cacheMisses > 0 {
		hitRatio = float64(c.cacheHits) / float64(c.cacheHits+c.cacheMisses)
	}
	simNew := mean(func(l *layerCounts) float64 { return l.simNewS })
	programs := mean(func(l *layerCounts) float64 { return l.programsS })
	if wl == "glsimd-sweep" {
		simNew, programs = prof.simNewS/n, prof.programsS/n
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("setup.sim_new_s", simNew, "s")
	set("setup.programs_s", programs, "s")
	set("setup.alloc_mb", mean(func(l *layerCounts) float64 { return l.setupAllocB })/1e6, "MB")
	set("engine.events", float64(c.events), "count")
	set("engine.stepped_cycles", float64(stepped), "count")
	set("engine.ff_ratio", ffRatio, "ratio")
	set("engine.self_s", self(clsEngine), "s")
	set("noc.packets", float64(c.packets), "count")
	set("noc.flit_hops", float64(c.flitHops), "count")
	set("noc.peak_queue", float64(c.peakQueue), "count")
	set("noc.self_s", self(clsNoC), "s")
	set("noc.ns_per_stepped_cycle", perUnit(self(clsNoC), stepped), "ns")
	set("coherence.l1_misses", float64(c.l1Misses), "count")
	set("coherence.l2_misses", float64(c.l2Misses), "count")
	set("coherence.messages", float64(c.cohMessages), "count")
	set("coherence.self_s", self(clsCoherence), "s")
	set("cpu.ops", float64(c.cpuOps), "count")
	set("cpu.self_s", self(clsCPU), "s")
	set("cpu.ns_per_op", perUnit(self(clsCPU), c.cpuOps), "ns")
	set("runtime.sched_s", self(clsSched), "s")
	set("gline.ticks", float64(c.glTicks), "count")
	set("gline.active_ticks", float64(c.glActive), "count")
	set("gline.arrivals", float64(c.glArrivals), "count")
	set("gline.tick_s", mean(func(l *layerCounts) float64 { return l.glTickS }), "s")
	set("gline.self_s", self(clsGLine), "s")
	set("serve.cells_simulated", float64(c.cellsSimulated), "count")
	set("serve.cache_hits", float64(c.cacheHits), "count")
	set("serve.hit_ratio", hitRatio, "ratio")
	set("serve.flight_shared", float64(c.flightShared), "count")
	set("serve.queue_wait_ms", mean(func(l *layerCounts) float64 { return l.queueWaitMs }), "ms")
	set("serve.cell_run_s", mean(func(l *layerCounts) float64 { return l.cellRunS }), "s")
	set("runtime.gc_s", self(clsGC), "s")
	set("gc.cycles", float64(gcCycles()-prof.gcBefore)/n, "count")
	set("other.self_s", self(clsOther), "s")
	set("profile.total_s", total/n, "s")
	set("trace.overhead_s", overhead, "s")
	fmt.Fprintf(os.Stderr, "perfbench: %s per traced round: %s\n", wl, mustJSON(m))
}
