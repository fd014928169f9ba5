package smapp

import (
	"net/netip"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/small"
	"repro/internal/trace"
)

// StackStats counts the policy layer's activity.
type StackStats struct {
	PoliciesAttached uint64 // controller instances bound to a token
	PoliciesSwitched uint64 // mid-connection policy swaps
	EventsDispatched uint64 // events routed to a bound controller
	EventsUnclaimed  uint64 // events of a token nobody claimed, dropped
}

// mux is the policy layer's one token table, held by value in a Stack and
// in a ControllerStack: it subscribes to the library once, runs one
// controller instance per connection, and hands every event to the one
// instance its token is bound to. A token is bound when its created event
// arrives, by whoever claimed it: a Dial (which binds by token before the
// event has crossed the transport), a Listen (by the local port the
// event's tuple carries) or the default policy. Events of a token nobody
// claimed are counted and dropped.
type mux struct {
	// Lib is the library the mux subscribes to and sends commands through
	// (nil on a stack with no userspace control plane).
	Lib *core.Library
	// Stats counts what the mux attached, routed and dropped.
	Stats StackStats

	bindings small.Table[uint32, *binding]
	order    []uint32 // binding tokens in attach order (deterministic fan-out)
	// A fan-out in progress walks order[fanPos:fanEnd] (both 0 otherwise);
	// unbind moves them with the elements, so the walk needs no copy.
	fanPos, fanEnd int

	ports    map[uint16]*claim // Listen's claims, by local port
	fallback *claim            // the default policy: claims what no port did

	tsh   *trace.Shard // policy-event recording (nil = off)
	owner string       // trace entity prefix: the host's name
}

// claim is a policy waiting for connections to be created: what a Listen
// or a default policy has validated and will instantiate per connection.
type claim struct {
	policy string
	cfg    ControllerConfig
}

// binding ties one connection token to its controller instance, and is the
// core.Lib view that instance programs against: Register captures the
// callbacks into the mux instead of issuing a kernel subscription per
// controller (the mux subscribed once for all), and every command passes
// through to the shared library — GetInfo and Clock untouched, the
// rest by way of the trace.
type binding struct {
	*core.Library
	m      *mux
	policy string
	ctl    controller.Controller
	cbs    core.Callbacks
	tid    uint32 // trace entity (0 = untraced)
}

func (m *mux) now() sim.Time { return sim.Time(m.Lib.Clock().Now()) }

// binding returns the binding of token, or nil.
func (m *mux) binding(token uint32) *binding {
	b, _ := m.bindings.Get(token)
	return b
}

// attach hands ctl its library view — the one place a controller is
// attached — and returns it with the callbacks ctl registered.
func (m *mux) attach(policy string, ctl controller.Controller, tid uint32) *binding {
	b := &binding{Library: m.Lib, m: m, policy: policy, ctl: ctl, tid: tid}
	ctl.Attach(b)
	return b
}

func (m *mux) bind(token uint32, policy string, ctl controller.Controller) *binding {
	var tid uint32
	if m.tsh != nil {
		tid = m.tsh.Tracer().Register(trace.EntPolicy, 0, m.owner+"/"+policy)
		m.tsh.Rec(m.now(), trace.KPolicyAttach, tid, uint64(token), 0, 0, 0)
	}
	b := m.attach(policy, ctl, tid)
	m.bindings.Put(token, b)
	m.order = append(m.order, token)
	m.Stats.PoliciesAttached++
	return b
}

func (m *mux) unbind(token uint32) {
	if b := m.binding(token); b != nil && b.tid != 0 {
		m.tsh.Rec(m.now(), trace.KPolicyDetach, b.tid, uint64(token), 0, 0, 0)
	}
	m.bindings.Delete(token)
	for i, t := range m.order {
		if t == token {
			m.order = append(m.order[:i], m.order[i+1:]...)
			if i < m.fanEnd {
				m.fanEnd--
				if i <= m.fanPos {
					m.fanPos-- // the walk's next step lands on what slid into i
				}
			}
			break
		}
	}
}

// claimed binds the connection a created event announces to a fresh
// instance of the policy that claimed it (nil when none did). The passive
// side's created carries the local-perspective tuple, so its SrcPort is
// the listen port.
func (m *mux) claimed(ev *nlmsg.Event) *binding {
	cl := m.ports[ev.Tuple.SrcPort]
	if cl == nil {
		cl = m.fallback
	}
	if cl == nil {
		return nil
	}
	factory, _ := Controllers.Lookup(cl.policy)
	ctl, err := factory(cl.cfg)
	if err != nil {
		return nil // the claimant validated cfg; a factory that fails later claims nothing
	}
	return m.bind(ev.Token, cl.policy, ctl)
}

// route is the mux: global events fan out to every bound controller in
// attach order (map iteration would break determinism); token events go
// to the owning binding, which a created event may first bring about.
// The fan-out reaches exactly the bindings that exist when it starts and
// still do at their turn: one unbound by an earlier handler is skipped, one
// bound by a handler waits for the next event.
func (m *mux) route(ev *nlmsg.Event) {
	switch ev.Kind {
	case nlmsg.EvLocalAddrUp, nlmsg.EvLocalAddrDown:
		m.fanEnd = len(m.order)
		for m.fanPos = 0; m.fanPos < m.fanEnd; m.fanPos++ {
			if b := m.binding(m.order[m.fanPos]); b != nil {
				m.Stats.EventsDispatched++
				b.cbs.Dispatch(ev)
			}
		}
		m.fanPos, m.fanEnd = 0, 0
		return
	}
	b := m.binding(ev.Token)
	if b == nil && ev.Kind == nlmsg.EvCreated {
		b = m.claimed(ev)
	}
	if b == nil {
		m.Stats.EventsUnclaimed++
		return
	}
	m.Stats.EventsDispatched++
	b.cbs.Dispatch(ev)
	if ev.Kind == nlmsg.EvClosed {
		m.unbind(ev.Token)
	}
}

// subscribe registers route for every event want has a handler for (for
// every event when want is nil), plus the two lifecycle events the token
// table itself needs.
func (m *mux) subscribe(want *core.Callbacks) {
	var cbs core.Callbacks
	if want != nil {
		cbs = *want
	}
	route := m.route
	for _, fn := range []*func(*nlmsg.Event){
		&cbs.Established, &cbs.SubEstablished, &cbs.SubClosed, &cbs.AddAddr,
		&cbs.RemAddr, &cbs.Timeout, &cbs.LocalAddrUp, &cbs.LocalAddrDown,
	} {
		if want == nil || *fn != nil {
			*fn = route
		}
	}
	cbs.Created, cbs.Closed = route, route
	m.Lib.Register(cbs, nil)
}

// traceCmd records one controller command against the binding's policy
// entity (a nil-guarded store; untraced stacks pay a branch).
func (h *binding) traceCmd(cmd uint8, token uint32) {
	if h.tid != 0 {
		h.m.tsh.Rec(h.m.now(), trace.KPolicyCmd, h.tid, uint64(token), 0, 0, cmd)
	}
}

// Register implements core.Lib.
func (h *binding) Register(cbs core.Callbacks, done func(errno uint32)) {
	h.cbs = cbs
	if done != nil {
		done(0) // the mux's subscription already covers every event
	}
}

// CreateSubflow implements core.Lib.
func (h *binding) CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	h.traceCmd(trace.CmdCreateSubflow, token)
	h.Library.CreateSubflow(token, ft, backup, done)
}

// RemoveSubflow implements core.Lib.
func (h *binding) RemoveSubflow(token uint32, ft seg.FourTuple, done func(errno uint32)) {
	h.traceCmd(trace.CmdRemoveSubflow, token)
	h.Library.RemoveSubflow(token, ft, done)
}

// SetBackup implements core.Lib.
func (h *binding) SetBackup(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	h.traceCmd(trace.CmdSetBackup, token)
	h.Library.SetBackup(token, ft, backup, done)
}

// AnnounceAddr implements core.Lib.
func (h *binding) AnnounceAddr(token uint32, addr netip.Addr, port uint16, done func(errno uint32)) {
	h.traceCmd(trace.CmdAnnounceAddr, token)
	h.Library.AnnounceAddr(token, addr, port, done)
}
