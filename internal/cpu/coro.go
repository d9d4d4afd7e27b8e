//go:build go1.23

package cpu

import (
	"fmt"
	"iter"

	"repro/internal/stats"
)

// Start launches prog on the core as a coroutine. The program begins
// issuing operations at the engine's current cycle: its body, including
// any code before its first operation, first runs inside the event Start
// schedules now, so programs run in launch order and never concurrently
// with the engine or each other.
func (c *Core) Start(prog Program) {
	if c.running {
		panic(fmt.Sprintf("cpu: core %d already running", c.id))
	}
	c.running = true
	c.startCycle = c.eng.Now()
	ctx := &Ctx{core: c, region: stats.RegionBusy}
	c.next, c.stop = iter.Pull(func(yield func(op) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && err == errAborted {
					return
				}
				c.err = fmt.Errorf("cpu: core %d program panic: %v", c.id, r)
			}
		}()
		ctx.yield = yield
		prog(ctx)
	})
	c.eng.Call(c.eng.Now(), nextOpCB, c, nil, 0, 0)
}
