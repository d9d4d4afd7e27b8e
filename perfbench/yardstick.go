package main

import "sync"

// The yardstick is a fixed slice of host work that uses nothing of the
// repository: goroutine hand-offs over unbuffered channels, the kind of
// work the cores' op handshake and the HTTP client and server do. Rounds
// take a reading before, between and after the parts they time, outside
// those parts, so that a run can tell how fast the host was at the moments
// it measured.
//
// On a shared VM the physical core under a vCPU slows by up to 1.7x, for
// seconds to minutes, while other guests load it, and the program's
// timings slow with it: ten 50 s kernels-gl runs of one code had their
// median wall_s spread by 27 % (quartile distance over median), and a
// whole 50 s run could fall inside one slow phase. In three traces of the
// six kernels (8-9 minutes each, readings between the simulations), the
// median kernel time of 50 s windows spread 0.08-0.33; scaled round by
// round by the readings, 0.03-0.05. Hand-offs tracked the kernels better
// than a pointer chase over 1 MiB, a branchy integer loop, map lookups or
// any mix of them that was tried: those slowed by 1.1x to 4x in phases
// where the kernels slowed by 1.4x to 1.6x.
//
// Timings are reported at the reference speed: each timed part is scaled
// by yardRefS over the mean of the readings just before and after it (see
// scaleRound). Only the scale changes with the host; the program's code
// does not move the yardstick, so a change that makes the program faster
// reads faster.

// yardRefS is a reading's time on the 2-vCPU Intel Xeon VM the benchmark
// was sized on, in a calm phase of that host. It only fixes the unit in
// which scaled timings read: seconds on a host that makes a reading in
// this time.
const yardRefS = 0.020

// yardHandoffs is the number of round trips in one reading.
const yardHandoffs = 40_000

// yardPing and yardPong are the hand-off channels; their partner
// goroutine lives as long as the process, so a reading allocates nothing.
var (
	yardPing, yardPong chan uint64
	yardOnce           sync.Once
	yardSink           uint64 // keeps the readings' results live
)

func yardInit() {
	yardPing, yardPong = make(chan uint64), make(chan uint64)
	go func() {
		for v := range yardPing {
			yardPong <- v + 1
		}
	}()
}

// yardstick makes one reading and returns its wall time in seconds.
func yardstick() float64 {
	yardOnce.Do(yardInit)
	var acc uint64
	start := now()
	for i := uint64(0); i < yardHandoffs; i++ {
		yardPing <- i
		acc += <-yardPong
	}
	d := now().Sub(start)
	yardSink += acc
	return d.Seconds()
}

// reading takes a yardstick reading into rd and starts a new part, unless
// rd is traced: readings would show in a traced round's profile, and only
// untraced rounds are scaled.
func (rd *round) reading(traced bool) {
	if !traced {
		rd.at() // the part before the first reading
		rd.yard = append(rd.yard, yardstick())
		rd.parts = append(rd.parts, part{})
	}
}
