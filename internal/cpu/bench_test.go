package cpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mem"
)

// BenchmarkOpHandshake measures the core-program handshake: a compute-only
// program issues Compute(1), so every engine step completes one op, resumes
// the program and takes its next op. ns/op is host time per simulated op.
func BenchmarkOpHandshake(b *testing.B) {
	eng := engine.New()
	cfg := config.Default(4)
	prot := coherence.New(eng, cfg, mem.NewStore())
	core := NewCore(0, eng, cfg.IssueWidth, cfg.GLCallOverhead, prot.L1(0), nil)
	core.Start(func(c *Ctx) {
		for {
			c.Compute(1)
		}
	})
	defer core.Abort()
	for i := 0; i < 1000; i++ {
		eng.Step()
	}
	compute0, _, _, _, _ := core.OpCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	if compute, _, _, _, _ := core.OpCounts(); compute-compute0 != uint64(b.N) {
		b.Fatalf("%d steps ran %d ops, want one op per step", b.N, compute-compute0)
	}
}
