package controller

import (
	"net/netip"

	"repro/internal/core"
	"repro/internal/nlmsg"
)

// NDiffPorts is the §4.5 controller: a userspace clone of the kernel
// ndiffports path manager. It creates N-1 extra subflows over the initial
// address pair as soon as the connection is established. The paper uses it
// to measure the cost of moving the control plane to userspace: the delay
// between the SYN carrying MP_CAPABLE and the SYN carrying MP_JOIN grows
// by ≈23 µs on average compared to the in-kernel manager (Fig. 3).
type NDiffPorts struct {
	// N is the total subflow count per connection.
	N int

	session
	local netip.Addr // the initial subflow's; the others leave from it too
	Stats NDiffPortsStats
}

// NDiffPortsStats counts controller activity.
type NDiffPortsStats struct {
	SubflowsRequested uint64
}

// NewNDiffPorts builds the controller.
func NewNDiffPorts(n int) *NDiffPorts {
	return &NDiffPorts{N: n}
}

// Attach implements Controller. It needs only establishment, besides the
// connection's lifecycle.
func (p *NDiffPorts) Attach(lib core.Lib) {
	p.lib = lib
	h := p.handle
	lib.Register(core.Callbacks{Created: h, Established: h, Closed: h}, nil)
}

// handle is the one event handler Attach registers.
func (p *NDiffPorts) handle(ev *nlmsg.Event) {
	if !p.admit(ev) {
		return
	}
	switch ev.Kind {
	case nlmsg.EvCreated:
		p.local = ev.Tuple.SrcIP
	case nlmsg.EvEstablished:
		for i := 1; i < p.N; i++ {
			p.Stats.SubflowsRequested++
			p.join(p.local, p.dest(), nil)
		}
	}
}
