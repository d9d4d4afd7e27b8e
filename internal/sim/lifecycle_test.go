package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
)

// settleGoroutines polls briefly for the goroutine count to fall back to
// want and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCloseReleasesProgramCoroutines: however a run ends — never run, a
// deadlock stall, an exhausted cycle budget — Close unwinds every program
// coroutine, and Close is idempotent.
func TestCloseReleasesProgramCoroutines(t *testing.T) {
	spinForever := func(s *System) cpu.Program {
		addr := s.Alloc.Line()
		return func(c *cpu.Ctx) { c.SpinUntilEq(addr, 1) }
	}
	computeForever := func(*System) cpu.Program {
		return func(c *cpu.Ctx) {
			for {
				c.Compute(100)
			}
		}
	}
	cases := []struct {
		name string
		prog func(*System) cpu.Program
		run  bool // run to its error (a stall or the budget) before Close
	}{
		{"unrun", computeForever, false},
		{"stall", spinForever, true},
		{"budget", computeForever, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := newTestSystem(t, 4)
			progs := make([]cpu.Program, 4)
			for i := range progs {
				progs[i] = tc.prog(s)
			}
			if err := s.Launch(progs); err != nil {
				t.Fatal(err)
			}
			if tc.run {
				if _, err := s.Run(5_000); err == nil {
					t.Fatal("Run of a never-ending program returned no error")
				}
			}
			s.Close()
			s.Close()
			if n := settleGoroutines(base); n > base {
				t.Errorf("%d goroutines after Close, %d before launch", n, base)
			}
		})
	}
}

// TestPreambleRunsInLaunchOrder: code a program runs before its first op
// (a barrier recorder stamping an arrival, say) executes in launch order,
// inside the engine's first cycle and never concurrently with another
// program. Run it under -race: the unsynchronized append is the check.
func TestPreambleRunsInLaunchOrder(t *testing.T) {
	const n = 16
	s := newTestSystem(t, n)
	defer s.Close()
	var order []int
	progs := make([]cpu.Program, n)
	for i := range progs {
		i := i
		progs[i] = func(c *cpu.Ctx) {
			order = append(order, i)
			if now := c.Now(); now != 0 {
				t.Errorf("program %d preamble ran at cycle %d, want 0", i, now)
			}
			c.Compute(uint64(n - i))
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("programs ran before the engine did: %v", order)
	}
	if _, err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("%d preambles ran, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("preamble order %v, want launch order", order)
		}
	}
}
