package cpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mem"
)

// TestZeroAllocOpHandshake is the core's alloc regression gate: once a
// program is running and its working set is cached, the op handshake —
// coroutine yield of the op, L1 access, typed completion callback, resume
// with the result — must not allocate per engine step.
func TestZeroAllocOpHandshake(t *testing.T) {
	eng := engine.New()
	cfg := config.Default(4)
	prot := coherence.New(eng, cfg, mem.NewStore())
	core := NewCore(0, eng, cfg.IssueWidth, cfg.GLCallOverhead, prot.L1(0), nil)

	const addr = 0x100040
	core.Start(func(c *Ctx) {
		// An endless steady-state mix: compute, cached load, cached
		// store, remote atomic. The test measures engine steps, not
		// program completion.
		for i := uint64(0); ; i++ {
			c.Compute(3)
			c.Load(addr)
			c.StoreV(addr, i)
			c.FetchAdd(addr+64, 1)
		}
	})

	// Warm up: fault in the two lines, fill the message and event pools,
	// and let the program coroutine's stack reach steady state.
	for i := 0; i < 5000; i++ {
		eng.Step()
	}
	if core.Done() {
		t.Fatalf("program finished during warm-up: %v", core.Err())
	}
	_, loads, _, _, _ := core.OpCounts()
	if loads == 0 {
		t.Fatal("warm-up executed no loads; harness is wired wrong")
	}

	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 200; i++ {
			eng.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("op-handshake steady state allocates %.1f objects per 200 steps, want 0", allocs)
	}
	core.Abort()
}
