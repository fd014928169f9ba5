package controller

import (
	"net/netip"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
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

	lib core.Lib
	// The connection being managed, from its created event to its closed.
	open   bool
	local  netip.Addr
	remote netip.AddrPort
	Stats  NDiffPortsStats
}

// NDiffPortsStats counts controller activity.
type NDiffPortsStats struct {
	SubflowsRequested uint64
}

// NewNDiffPorts builds the controller.
func NewNDiffPorts(n int) *NDiffPorts {
	return &NDiffPorts{N: n}
}

// Name implements Controller.
func (p *NDiffPorts) Name() string { return "user-ndiffports" }

// Attach implements Controller. It needs only establishment, besides the
// connection's lifecycle.
func (p *NDiffPorts) Attach(lib core.Lib) {
	p.lib = lib
	h := p.handle
	lib.Register(core.Callbacks{Created: h, Established: h, Closed: h}, nil)
}

// handle is the one event handler Attach registers.
func (p *NDiffPorts) handle(ev *nlmsg.Event) {
	switch ev.Kind {
	case nlmsg.EvCreated:
		p.open = true
		p.local = ev.Tuple.SrcIP
		p.remote = netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)
	case nlmsg.EvEstablished:
		p.onEstablished(ev)
	case nlmsg.EvClosed:
		p.open = false
	}
}

// Detach implements Controller: ndiffports acts only on establishment, so
// ending the connection is enough.
func (p *NDiffPorts) Detach() { p.open = false }

func (p *NDiffPorts) onEstablished(ev *nlmsg.Event) {
	if !p.open {
		return
	}
	for i := 1; i < p.N; i++ {
		p.Stats.SubflowsRequested++
		p.lib.CreateSubflow(ev.Token, seg.FourTuple{
			SrcIP: p.local, SrcPort: 0,
			DstIP: p.remote.Addr(), DstPort: p.remote.Port(),
		}, false, nil)
	}
}
