package smapp

import (
	"sync"
	"time"

	"repro/internal/core"
)

// ControllerStack is the controller-process half of the paper's split
// deployment: a PM library (Lib) over a caller-provided transport
// (typically a Unix socket to the kernel half, see cmd/smappd) plus a
// default policy picked from the same registry the in-process Stack uses.
// It holds the same token table as Stack: every connection the remote
// kernel creates gets its own instance of the policy.
type ControllerStack struct {
	mux
}

// NewControllerStack attaches a library to the controller end of tr,
// ticking on the given clock (WallClock for real processes, core.SimClock
// in tests).
func NewControllerStack(tr *core.Transport, clock core.Clock, pid uint32) *ControllerStack {
	if pid == 0 {
		pid = 1
	}
	return &ControllerStack{mux{Lib: core.NewLibrary(tr, clock, pid)}}
}

// Use makes the named policy the default every created connection is
// claimed for, detaching the instances of a previously used one first
// (their timers would otherwise keep issuing commands under the
// replacement). It subscribes to exactly the events the policy handles,
// read off the instance that validates cfg, plus created and closed for
// the token table. The nil policy is an unknown name here: a controller
// process exists to run one.
func (cs *ControllerStack) Use(policy string, cfg ControllerConfig) error {
	factory, err := Controllers.Lookup(policy)
	if err != nil {
		return err
	}
	probe, err := factory(cfg)
	if err != nil {
		return err
	}
	for len(cs.order) > 0 {
		token := cs.order[0]
		cs.binding(token).ctl.Detach()
		cs.unbind(token)
	}
	cs.fallback = &claim{policy, cfg}
	cs.subscribe(&cs.attach(policy, probe, 0).cbs)
	return nil
}

// WallClock adapts the wall clock to core.Clock for controller processes.
// Timer callbacks are serialised with the socket event pump through Mu,
// so controller code stays single-threaded exactly as on the sim clock.
type WallClock struct {
	start time.Time
	mu    *sync.Mutex
}

// NewWallClock starts a wall clock whose timer callbacks lock mu.
func NewWallClock(mu *sync.Mutex) WallClock {
	return WallClock{start: time.Now(), mu: mu}
}

// Now implements core.Clock.
func (c WallClock) Now() time.Duration { return time.Since(c.start) }

// After implements core.Clock. The cancel must be called under Mu, as all
// controller code is. A timer that fired while Mu was held has a callback
// already waiting for Mu, which t.Stop cannot call back; stopped makes
// that callback return without running fn.
func (c WallClock) After(d time.Duration, fn func()) func() {
	stopped := false
	t := time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !stopped {
			fn()
		}
	})
	return func() {
		stopped = true
		t.Stop()
	}
}
