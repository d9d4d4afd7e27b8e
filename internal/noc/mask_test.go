package noc

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// checkMasks asserts the occupancy-mask invariant on every router and
// port: a mask bit is set exactly when its queue holds a packet.
func checkMasks(t *testing.T, m *Mesh, cycle uint64) {
	t.Helper()
	for node := range m.routers {
		r := &m.routers[node]
		for port := 0; port < numPorts; port++ {
			if got, want := r.inMask&(1<<port) != 0, r.in[port].n > 0; got != want {
				t.Fatalf("cycle %d node %d in[%d]: mask bit %v, queue length %d", cycle, node, port, got, r.in[port].n)
			}
			if got, want := r.outMask&(1<<port) != 0, r.out[port].n > 0; got != want {
				t.Fatalf("cycle %d node %d out[%d]: mask bit %v, queue length %d", cycle, node, port, got, r.out[port].n)
			}
		}
	}
}

// TestOccupancyMaskInvariant drives uniform-random and all-to-one traffic
// through a mesh whose links go down and corrupt flits, and checks after
// every step that the port masks mirror the queues and that inFlight is
// injected minus delivered.
func TestOccupancyMaskInvariant(t *testing.T) {
	plan := &fault.Plan{
		Seed: 11,
		Events: []fault.Event{
			// Every link is down for a window, so queues back up
			// everywhere and drain afterwards.
			{Site: fault.NoCLinkDown, From: 200, Until: 400, Loc: -1},
		},
	}
	plan.Rates[fault.NoCLinkDown] = 0.05
	plan.Rates[fault.NoCCorrupt] = 0.05
	patterns := []struct {
		name string
		dst  func(r *rand.Rand, src int) int
	}{
		{"uniform", func(r *rand.Rand, _ int) int { return r.Intn(32) }},
		{"hotspot", func(*rand.Rand, int) int { return 0 }},
	}
	for _, pat := range patterns {
		t.Run(pat.name, func(t *testing.T) {
			eng := engine.New()
			var delivered uint64
			m := New(eng, 8, 4, 1, 1, func(int, *Packet) { delivered++ })
			inj := fault.NewInjector(plan)
			reg := metrics.NewRegistry()
			inj.Bind(reg)
			m.SetInjector(inj)
			r := rand.New(rand.NewSource(3))
			var injected uint64
			for cycle := uint64(0); cycle < 3000; cycle++ {
				if cycle < 1500 && r.Intn(2) == 0 {
					src := r.Intn(32)
					m.Send(src, pat.dst(r, src), stats.ClassRequest, 1+r.Intn(5), nil)
					injected++
				}
				eng.Step()
				checkMasks(t, m, cycle)
				if got, want := uint64(m.InFlight()), injected-delivered; got != want {
					t.Fatalf("cycle %d: inFlight %d, injected %d - delivered %d = %d", cycle, got, injected, delivered, want)
				}
			}
			if m.InFlight() != 0 {
				t.Fatalf("%d packets still in flight after the drain", m.InFlight())
			}
			if delivered != injected {
				t.Fatalf("delivered %d of %d packets", delivered, injected)
			}
			for _, site := range []fault.Site{fault.NoCLinkDown, fault.NoCCorrupt} {
				if reg.Counter(fault.MetricInjectedPrefix+site.String()).Value() == 0 {
					t.Errorf("no %s fault fired; the plan does not exercise it", site)
				}
			}
		})
	}
}
