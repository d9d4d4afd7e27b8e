package noc

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// benchMeshTick measures one engine step of the paper's 8x4 mesh held at a
// fixed load: before each step, pick tops the traffic up to inFlight
// five-flit packets. ns/op is host time per simulated cycle, delivery
// events included.
func benchMeshTick(b *testing.B, linkLat uint64, inFlight int, pick func(r *rand.Rand) (src, dst int)) {
	eng := engine.New()
	m := New(eng, 8, 4, 1, linkLat, func(int, *Packet) {})
	r := rand.New(rand.NewSource(1))
	step := func() {
		for m.InFlight() < inFlight {
			src, dst := pick(r)
			m.Send(src, dst, stats.ClassRequest, 5, nil)
		}
		eng.Step()
	}
	// Warm the packet pool, the event slab and the router rings.
	for i := 0; i < 20_000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkMeshTick_UniformRandom: 32 packets between uniformly random
// tiles, so most routers hold a packet on most cycles.
func BenchmarkMeshTick_UniformRandom(b *testing.B) {
	benchMeshTick(b, 1, 32, func(r *rand.Rand) (int, int) { return r.Intn(32), r.Intn(32) })
}

// BenchmarkMeshTick_Hotspot: every tile sends to tile 0, the all-to-one
// pattern of a centralized barrier counter; queues build up next to the
// home tile while the far routers idle.
func BenchmarkMeshTick_Hotspot(b *testing.B) {
	benchMeshTick(b, 1, 32, func(r *rand.Rand) (int, int) { return 1 + r.Intn(31), 0 })
}

// BenchmarkMeshTick_InTransit: eight packets on 64-cycle wires, so almost
// every cycle finds every packet on a link and every router empty.
func BenchmarkMeshTick_InTransit(b *testing.B) {
	benchMeshTick(b, 64, 8, func(r *rand.Rand) (int, int) { return r.Intn(32), r.Intn(32) })
}
