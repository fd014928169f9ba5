package controller

import (
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/tcp"
)

// Refresh is the §4.4 controller: smarter exploitation of flow-based load
// balancing. When the connection starts it opens N subflows with random
// source ports so ECMP spreads them over the available paths. Every
// 2.5 s it queries the pacing_rate of each subflow, removes the one
// with the lowest rate and immediately creates a replacement on a fresh
// random port. Two subflows hashed onto the same path share its capacity
// and therefore show roughly half the pacing_rate of a subflow alone on a
// path — so the refresh loop drains collisions and converges to covering
// all paths ("a very simple heuristic", 230 LoC of C in the paper).
type Refresh struct {
	// N is the number of concurrent subflows (5 in Fig. 2c).
	N int

	lib core.Lib
	// The connection being managed, from its created event to its closed.
	open     bool
	token    uint32
	local    netip.Addr // the initial subflow's; replacements leave from it too
	remote   netip.AddrPort
	born     map[seg.FourTuple]time.Duration // creation time per live subflow
	stopTick func()
	Stats    RefreshStats
}

// RefreshStats counts controller activity.
type RefreshStats struct {
	Refreshes uint64 // subflow replacements performed
	Polls     uint64
}

const (
	// refreshInterval is the refresh period (2.5 s in the paper).
	refreshInterval = 2500 * time.Millisecond
	// minLifetime protects just-created subflows from being judged before
	// their pacing_rate means anything (one refresh interval).
	minLifetime = refreshInterval
)

// NewRefresh builds the controller with the paper's parameters.
func NewRefresh(n int) *Refresh {
	return &Refresh{
		N:    n,
		born: make(map[seg.FourTuple]time.Duration),
	}
}

// Name implements Controller.
func (r *Refresh) Name() string { return "refresh" }

// Attach implements Controller.
func (r *Refresh) Attach(lib core.Lib) {
	r.lib = lib
	h := r.handle
	lib.Register(core.Callbacks{
		Created: h, Established: h, Closed: h, SubEstablished: h, SubClosed: h,
	}, nil)
}

// Detach implements Controller: stop the refresh ticker and end the
// connection. An in-flight GetInfo reply sees it ended and does nothing.
func (r *Refresh) Detach() { r.onClosed() }

// handle is the one event handler Attach registers.
func (r *Refresh) handle(ev *nlmsg.Event) {
	switch ev.Kind {
	case nlmsg.EvCreated:
		r.onClosed() // a connection restarted without its closed event
		r.open, r.token = true, ev.Token
		r.local = ev.Tuple.SrcIP
		r.remote = netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)
		clear(r.born)
	case nlmsg.EvEstablished:
		if r.open {
			for i := 1; i < r.N; i++ {
				r.create()
			}
			r.tick()
		}
	case nlmsg.EvClosed:
		r.onClosed()
	case nlmsg.EvSubEstablished:
		if r.open {
			r.born[ev.Tuple] = r.lib.Clock().Now()
		}
	case nlmsg.EvSubClosed:
		if r.open {
			delete(r.born, ev.Tuple)
		}
	}
}

func (r *Refresh) onClosed() {
	r.open = false
	if r.stopTick != nil {
		r.stopTick()
		r.stopTick = nil
	}
}

func (r *Refresh) create() {
	// Source port 0 → the kernel draws a fresh random ephemeral port,
	// which is what re-rolls the ECMP dice.
	r.lib.CreateSubflow(r.token, seg.FourTuple{
		SrcIP: r.local, SrcPort: 0,
		DstIP: r.remote.Addr(), DstPort: r.remote.Port(),
	}, false, nil)
}

func (r *Refresh) tick() {
	r.stopTick = r.lib.After(refreshInterval, func() {
		if !r.open {
			return
		}
		r.poll()
		r.tick()
	})
}

// poll compares pacing_rates and replaces the slowest subflow.
func (r *Refresh) poll() {
	r.Stats.Polls++
	r.lib.GetInfo(r.token, func(info *nlmsg.ConnInfo) {
		if info == nil || !r.open {
			return
		}
		now := r.lib.Clock().Now()
		var worst *nlmsg.SubflowInfo
		established := 0
		for i := range info.Subflows {
			sf := &info.Subflows[i]
			if sf.State != uint32(tcp.StateEstablished) {
				continue
			}
			established++
			if born, ok := r.born[sf.Tuple]; ok && now-born < minLifetime {
				continue // too young to judge
			}
			if worst == nil || sf.PacingRate < worst.PacingRate {
				worst = sf
			}
		}
		// Keep the fleet at N: replace the slowest mature subflow.
		if worst == nil || established < 2 {
			return
		}
		r.Stats.Refreshes++
		r.lib.RemoveSubflow(r.token, worst.Tuple, nil)
		r.create()
	})
}
