package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simCores is the paper's CMP size, used by both simulation workloads.
const simCores = 32

// hotspotIters sizes hotspot-csw's one simulation per round: about 0.7 s
// of host time on one P of a Xeon VM, so a run holds many rounds.
const hotspotIters = 5

// setupReps is how many times each simulation's set-up is measured per
// round, before the timed part, on systems that are then closed unrun.
// One set-up of a 32-core system is a few milliseconds, too short to time
// once.
const setupReps = 5

// On the simulation workloads there is no server and no cache, so the
// glsimd-sweep latencies are taken on the in-process part of the same
// paths: a cached job's spec resolution (parse the grid, validate it and
// derive every cell's cache key) and a cell GET's bytes (Report.JSON of
// the round's first report: reports differ in size, so encodings spread
// over them would form one latency level each). Each round takes
// probeSamples of each, so that its p99 has ten samples beyond it. One
// spec resolution takes a few microseconds, about as long as a timer
// interrupt, so a resolution sample is a batch of specBatch of them.
const (
	probeSamples = 1000
	specBatch    = 20
)

func hotspotRound(r *runner, traced bool) *round {
	return simRound(r, traced, "hotspot-csw", "CSW", []workload.Benchmark{&workload.Synthetic{Iters: hotspotIters}},
		"bench=SYNTH barrier=CSW cores=32 tier=scaled seed=%d")
}

func kernelsRound(r *runner, traced bool) *round {
	return simRound(r, traced, "kernels-gl", "GL", workload.ScaledSuite(),
		"bench=KERN2|KERN3|KERN6|UNSTR|OCEAN|EM3D barrier=GL cores=32 tier=scaled seed=%d")
}

// simRound runs each benchmark once on a fresh 32-core system and checks
// its fingerprint and barrier count. The set-up of every benchmark is
// first measured setupReps times on systems that are closed unrun, each
// from a collected heap, so that whether the collector runs during a
// set-up does not depend on what ran before it; setup_s is the sum over
// benchmarks of each one's median set-up CPU time. Then the timed part
// builds, runs and checks each benchmark. After it, the round samples
// spec resolution and report encoding for the latency metrics (see
// probeSamples), again each from a collected heap.
func simRound(r *runner, traced bool, wl string, kind barrier.Kind, benches []workload.Benchmark, spec string) *round {
	rd := &round{fps: map[string]string{}}
	if traced {
		rd.layers = &layerCounts{}
	}
	rd.reading(traced)
	for _, bench := range benches {
		var setups []float64
		for k := 0; k < setupReps; k++ {
			runtime.GC()
			sys, cpuS, err := setupSim(r.seed, nil, kind, bench)
			if sys != nil {
				// Let the aborted program goroutines unwind: on one P
				// they would otherwise keep every closed system alive.
				sys.Close()
				runtime.Gosched()
			}
			if r.op(err) {
				setups = append(setups, cpuS)
			}
		}
		rd.at().setupS += median(setups)
	}
	runtime.GC()

	var cell *sim.Report // the report the cell_get probe encodes
	a0 := heapAllocs()
	for _, bench := range benches {
		label := bench.Name() + "/" + string(kind)
		rd.reading(traced)
		start := now()
		sys, _, err := setupSim(r.seed, rd.layers, kind, bench)
		if !r.op(err) {
			if sys != nil {
				sys.Close()
			}
			continue
		}
		t, c := now(), cpuSeconds()
		rep, err := sys.Run(serve.DefaultMaxCycles)
		rd.at().coldS += since(t)
		rd.at().simCPU += cpuSeconds() - c
		if err != nil {
			sys.Close()
			r.fail("%s %s: %v", wl, label, err)
			continue
		}
		if cell == nil {
			cell = rep
		}
		rd.cycles += rep.Cycles
		if want := bench.Barriers(simCores); rep.BarrierEpisodes != want {
			r.fail("%s %s: %d barriers, want %d", wl, label, rep.BarrierEpisodes, want)
		}
		rd.fps[label] = fmt.Sprintf("%s barriers=%d", rep.Fingerprint(), rep.BarrierEpisodes)
		if traced {
			rd.layers.addReport(rep)
			for _, c := range sys.Cores {
				compute, loads, stores, atomics, barriers := c.OpCounts()
				rd.layers.counts.cpuOps += compute + loads + stores + atomics + barriers
			}
			gl := sys.GL.(*timedGL)
			rd.layers.counts.glTicks += gl.ticks
			rd.layers.counts.glActive += gl.active
			rd.layers.counts.glArrivals += gl.arrivals
			rd.layers.glTickS += gl.busySeconds()
		}
		rd.at().wallS += since(start)
	}
	rd.reading(traced)
	rd.allocB = heapAllocs() - a0
	r.checkFingerprints(wl, rd.fps)

	spec = fmt.Sprintf(spec, r.seed)
	runtime.GC()
	for k := 0; k < probeSamples; k++ {
		t := now()
		var err error
		for n := 0; n < specBatch && err == nil; n++ {
			_, err = resolveSpec(spec)
		}
		rd.at().hitMs = append(rd.at().hitMs, ms(since(t)))
		r.op(err)
	}
	rd.reading(traced)
	if cell != nil {
		runtime.GC()
		var first []byte
		for k := 0; k < probeSamples; k++ {
			t := now()
			raw, err := cell.JSON()
			rd.at().getMs = append(rd.at().getMs, ms(since(t)))
			r.attempted++
			switch {
			case err != nil:
				r.fail("%s: report JSON: %v", wl, err)
			case first == nil:
				first = raw
			case !bytes.Equal(raw, first):
				r.fail("%s: report JSON differs between encodings", wl)
			}
		}
	}
	rd.reading(traced)
	return rd
}

// resolveSpec is the in-process part of a cached glsimd job: parse and
// validate the grid, and derive every cell's input fingerprint, the key
// the cache answers from.
func resolveSpec(spec string) ([]string, error) {
	js, err := serve.ParseJobSpec(spec)
	if err != nil {
		return nil, err
	}
	cells := js.Cells()
	fps := make([]string, len(cells))
	for i, c := range cells {
		fps[i] = c.Fingerprint()
	}
	return fps, nil
}

// setupSim makes the set-up calls for one simulation — configuration
// validation, sim.New, NewBarrier, Programs and Launch — and returns the
// process CPU time they took. CPU time rather than wall time, because a
// shared VM's stolen time shows in the wall clock of a call this short
// and not in its CPU time. lc is non-nil in traced rounds: the system is
// then built without a G-line network and given a timed wrapper around
// one built the way sim.New builds it, so every network tick is counted
// exactly once.
func setupSim(seed int64, lc *layerCounts, kind barrier.Kind, bench workload.Benchmark) (sys *sim.System, cpuS float64, err error) {
	a0 := heapAllocs()
	c0 := cpuSeconds()
	defer func() {
		cpuS = cpuSeconds() - c0
		if lc != nil {
			lc.setupAllocB += float64(heapAllocs() - a0)
		}
	}()
	cfg := config.Default(simCores)
	cfg.WorkloadSeed = seed
	if lc != nil {
		cfg.GLContexts = 0
	}
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	tn := now()
	sys, err = sim.New(cfg)
	if lc != nil {
		lc.simNewS += since(tn)
	}
	if err != nil {
		return nil, 0, err
	}
	if lc != nil {
		gl, err := glNetwork(config.Default(simCores))
		if err != nil {
			return sys, 0, err
		}
		sys.ReplaceGL(&timedGL{GLNetwork: gl})
	}
	b, err := sys.NewBarrier(kind, simCores)
	if err != nil {
		return sys, 0, err
	}
	tp := now()
	progs, err := bench.Programs(sys, b, simCores)
	if lc != nil {
		lc.programsS += since(tp)
	}
	if err != nil {
		return sys, 0, err
	}
	return sys, 0, sys.Launch(progs)
}

// glNetwork builds the G-line network sim.New would build for cfg.
func glNetwork(cfg config.Config) (sim.GLNetwork, error) {
	if cfg.GLFitsFlat() {
		return core.NewNetwork(core.NetworkConfig{
			Cols:            cfg.MeshCols,
			Rows:            cfg.MeshRows,
			MaxTransmitters: cfg.GLMaxTransmitters,
			Contexts:        cfg.GLContexts,
			Mux:             core.MuxSpace,
		})
	}
	span, err := sim.ChooseSpan(cfg.MeshCols, cfg.MeshRows, cfg.GLMaxTransmitters)
	if err != nil {
		return nil, err
	}
	return core.NewHierarchical(cfg.MeshCols, cfg.MeshRows, span, cfg.GLMaxTransmitters, cfg.GLContexts)
}

// timedGL counts the G-line network's Tick and Arrive calls and times
// every glSampleEvery-th of each, since reading the clock around every
// one of a run's millions of ticks would cost more than the ticks. The
// engine and the cores call it from one goroutine at a time, so the plain
// fields need no locking.
type timedGL struct {
	sim.GLNetwork
	ticks, active, arrivals uint64
	tickBusy, arriveBusy    time.Duration
}

const glSampleEvery = 64

func (g *timedGL) Tick(cycle uint64) bool {
	var busy bool
	if g.ticks%glSampleEvery == 0 {
		t := now()
		busy = g.GLNetwork.Tick(cycle)
		g.tickBusy += now().Sub(t)
	} else {
		busy = g.GLNetwork.Tick(cycle)
	}
	g.ticks++
	if busy {
		g.active++
	}
	return busy
}

func (g *timedGL) Arrive(core, ctx int) {
	if g.arrivals%glSampleEvery == 0 {
		t := now()
		g.GLNetwork.Arrive(core, ctx)
		g.arriveBusy += now().Sub(t)
	} else {
		g.GLNetwork.Arrive(core, ctx)
	}
	g.arrivals++
}

// busySeconds estimates the time spent in Tick and Arrive from the
// sampled calls, less the clock read each sampled call's timing includes.
func (g *timedGL) busySeconds() float64 {
	scale := func(d time.Duration, calls uint64) float64 {
		sampled := (calls + glSampleEvery - 1) / glSampleEvery
		if sampled == 0 {
			return 0
		}
		d -= time.Duration(sampled) * clockCost()
		return max(d.Seconds(), 0) * float64(calls) / float64(sampled)
	}
	return scale(g.tickBusy, g.ticks) + scale(g.arriveBusy, g.arrivals)
}

// clockCost is the mean time of one clock read, as a timing taken with
// two reads includes it.
var clockCost = sync.OnceValue(func() time.Duration {
	const n = 100000
	var total time.Duration
	for i := 0; i < n; i++ {
		t := now()
		total += now().Sub(t)
	}
	return total / n
})

// addReport adds one simulation's counts to the traced round.
func (l *layerCounts) addReport(rep *sim.Report) {
	c := &l.counts
	c.events += rep.Metrics.Counters["engine.events.executed"]
	c.cycles += rep.Cycles
	c.ffCycles += rep.Metrics.Counters["engine.fastforward.cycles"]
	c.packets += rep.Traffic.TotalMessages()
	c.flitHops += rep.FlitHops
	c.peakQueue = max(c.peakQueue, rep.NoC.PeakQueue)
	c.l1Misses += rep.L1Misses
	c.l2Misses += rep.L2Misses
	c.cohMessages += rep.Traffic.Messages[stats.ClassCoherence]
}

// now reads the wall clock. Host time is what this benchmark measures;
// nothing simulated derives from it.
//
//lint:allow detrand host time is the benchmark's measurement, not simulated time
func now() time.Time { return time.Now() }

func since(t time.Time) float64 { return now().Sub(t).Seconds() }

func ms(s float64) float64 { return s * 1e3 }
