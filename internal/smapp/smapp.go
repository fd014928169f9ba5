// Package smapp is the paper's "smart application" layer: a socket-level
// facade over the split control plane of internal/core. An application
// builds one Stack per host, then dials or listens with a *named policy*
// — the registered subflow controllers of §4 — without ever touching the
// transport, the Netlink PM, the library, or controller wiring:
//
//	st := smapp.New(host, smapp.Config{})
//	conn, err := st.Dial(laddr, raddr, 80, "fullmesh", smapp.ControllerConfig{}, cbs)
//
// Unlike the raw library (one controller per process, as in the paper's C
// implementation), the Stack multiplexes: each connection gets its own
// controller instance behind a per-connection library view, policies can
// differ across connections of one host, and a live connection can swap
// its policy mid-transfer (SwitchPolicy). Info merges the application-side
// mptcp snapshot with the Netlink-side wire view into one type.
package smapp

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/nlmsg"
	"repro/internal/seg"
	"repro/internal/trace"
)

// Config tunes a Stack.
type Config struct {
	// MPTCP configures the endpoint (scheduler, TCP knobs, coupling).
	MPTCP mptcp.Config
	// KernelPM, when non-nil, replaces the whole userspace control plane
	// with an in-kernel path manager (internal/pm) or mptcp.NopPM: no
	// transport, no library, no policies — the baselines the paper
	// compares against. Only the nil policy works on such a stack.
	KernelPM mptcp.PathManager
	// Transport overrides the kernel↔controller channel (nil = the
	// simulated Netlink transport with the default latency model).
	Transport *core.Transport
	// CtlFlush, when positive, batches kernel events per flush window into
	// one pooled multi-message frame with coalescing of superseded events
	// (core.NetlinkPM.SetCoalescing). Zero keeps the default immediate
	// one-frame-per-event delivery — which every golden experiment relies
	// on, since batching changes the transport's latency-draw sequence.
	CtlFlush time.Duration
	// CtlQueue bounds the pending-event queue in coalesced mode (≤0 =
	// core.DefaultCtlQueue); overflow drops the oldest queued event.
	CtlQueue int
	// Trace, when non-nil, records policy bindings, switches, and every
	// controller command into this shard (the kernel-side protocol
	// events ride on MPTCP.Trace, usually the same shard).
	Trace *trace.Shard
}

// StackStats counts facade activity.
type StackStats struct {
	PoliciesAttached uint64 // controllers bound via Dial/Listen/SwitchPolicy
	PoliciesSwitched uint64 // mid-connection policy swaps
	EventsDispatched uint64 // events routed to a bound controller
	EventsBuffered   uint64 // events held for a not-yet-bound token
	EventsDropped    uint64 // events with no binding and a full buffer
}

// maxPending bounds the per-token event buffer for connections whose
// policy binds after their first events (server-side accepts).
const maxPending = 64

// Stack bundles everything one host needs to run smart MPTCP-enabled
// applications: endpoint, transport, kernel-side Netlink PM, userspace
// library, and the per-connection policy mux.
type Stack struct {
	Host      *netem.Host
	Endpoint  *mptcp.Endpoint
	Transport *core.Transport // nil on a KernelPM stack
	PM        *core.NetlinkPM // nil on a KernelPM stack
	Lib       *core.Library   // nil on a KernelPM or kernel-half stack

	// The policy mux; the maps exist only on a stack with a library (no
	// other stack can bind a policy).
	bindings map[uint32]*binding
	order    []uint32 // binding tokens in attach order (deterministic fan-out)
	pending  map[uint32][]*nlmsg.Event
	// A fan-out in progress walks order[fanPos:fanEnd] (both 0 otherwise);
	// unbind moves them with the elements, so the walk needs no copy.
	fanPos, fanEnd int

	tsh *trace.Shard // policy-event recording (nil = off)

	Stats StackStats
}

// binding ties one connection token to its controller instance.
type binding struct {
	policy string
	ctl    controller.Controller
	host   *policyHost
	tid    uint32 // trace entity of this binding (0 = untraced)
}

// New builds the full in-process stack for a host: simulated Netlink
// transport (or a custom one), kernel-side PM, userspace
// library on the sim clock, and the MPTCP endpoint — the paper's Figure 1
// in one constructor.
func New(host *netem.Host, cfg Config) *Stack {
	st := &Stack{Host: host, tsh: cfg.Trace}
	if cfg.KernelPM != nil {
		st.Endpoint = mptcp.NewEndpoint(host, cfg.MPTCP, cfg.KernelPM)
		return st
	}
	// Only a stack with a library can bind a policy, so only it pays for
	// the mux tables.
	st.bindings = make(map[uint32]*binding)
	st.pending = make(map[uint32][]*nlmsg.Event)
	s := host.Clock()
	tr := cfg.Transport
	if tr == nil {
		tr = core.NewSimTransport(s)
	}
	st.Transport = tr
	st.PM = core.NewNetlinkPM(s, tr)
	if cfg.CtlFlush > 0 {
		st.PM.SetCoalescing(cfg.CtlFlush, cfg.CtlQueue)
	}
	st.Lib = core.NewLibrary(tr, core.SimClock{S: s}, 1)
	// One subscription covers every policy the stack will ever host; the
	// mux below fans events out per connection.
	st.Lib.Register(core.Callbacks{
		Created:        st.route,
		Established:    st.route,
		Closed:         st.route,
		SubEstablished: st.route,
		SubClosed:      st.route,
		AddAddr:        st.route,
		RemAddr:        st.route,
		Timeout:        st.route,
		LocalAddrUp:    st.route,
		LocalAddrDown:  st.route,
	}, nil)
	st.Endpoint = mptcp.NewEndpoint(host, cfg.MPTCP, st.PM)
	return st
}

// NewKernel builds the kernel half alone over a caller-provided transport:
// Netlink PM plus endpoint, with the library living in another process
// (see cmd/smappd and ControllerStack). Only the nil policy works locally.
func NewKernel(host *netem.Host, tr *core.Transport, cfg mptcp.Config) *Stack {
	st := &Stack{Host: host, Transport: tr}
	st.PM = core.NewNetlinkPM(host.Clock(), tr)
	st.Endpoint = mptcp.NewEndpoint(host, cfg, st.PM)
	return st
}

// Dial opens a Multipath TCP connection managed by the named policy. The
// empty policy runs the plain stack; any registered name binds a fresh
// controller instance to just this connection. Empty pcfg.Addrs default
// to the host's interface addresses.
func (st *Stack) Dial(laddr, raddr netip.Addr, rport uint16, policy string, pcfg ControllerConfig, cb mptcp.ConnCallbacks) (*mptcp.Connection, error) {
	ctl, err := st.buildController(policy, &pcfg)
	if err != nil {
		return nil, err
	}
	conn, err := st.Endpoint.Connect(laddr, raddr, rport, cb)
	if err != nil {
		return nil, err
	}
	if ctl != nil {
		// The created event is still crossing the transport; binding now
		// guarantees the controller sees it.
		st.bind(conn.Token(), policy, ctl)
	}
	return conn, nil
}

// Listen accepts connections on a local port, binding a fresh instance of
// the named policy to each accepted connection before accept runs. Events
// that raced ahead of the accept (the created event fires at SYN time)
// are buffered per token and replayed on bind.
func (st *Stack) Listen(port uint16, policy string, pcfg ControllerConfig, accept func(*mptcp.Connection)) error {
	factory, err := st.checkPolicy(policy)
	if err != nil {
		return err
	}
	if factory != nil {
		st.fillDefaults(&pcfg)
		// Validate once up front so a bad config fails the Listen call,
		// not every accept.
		if _, err := factory(pcfg); err != nil {
			return err
		}
	}
	st.Endpoint.Listen(port, func(c *mptcp.Connection) {
		if factory != nil {
			if ctl, err := factory(pcfg); err == nil {
				st.bind(c.Token(), policy, ctl)
			}
		}
		if accept != nil {
			accept(c)
		}
	})
	return nil
}

// SwitchPolicy swaps a live connection's controller mid-transfer: the old
// controller's timers are cancelled and its state dropped (Detach), and
// the connection's current subflow state is replayed to the new one as
// synthetic created/established/sub-established events, so it starts from
// an accurate view rather than an empty one. The empty policy detaches
// without a replacement.
func (st *Stack) SwitchPolicy(conn *mptcp.Connection, policy string, pcfg ControllerConfig) error {
	if conn.Closed() {
		return fmt.Errorf("smapp: cannot switch policy on a closed connection")
	}
	ctl, err := st.buildController(policy, &pcfg)
	if err != nil {
		return err
	}
	token := conn.Token()
	if old := st.bindings[token]; old != nil {
		old.ctl.Detach()
		st.unbind(token)
		st.Stats.PoliciesSwitched++
	}
	if ctl == nil {
		return nil
	}
	st.bind(token, policy, ctl)
	st.replay(conn)
	return nil
}

// Controller reports the controller instance bound to a connection (nil
// when the connection runs the nil policy).
func (st *Stack) Controller(conn *mptcp.Connection) controller.Controller {
	if b := st.bindings[conn.Token()]; b != nil {
		return b.ctl
	}
	return nil
}

// PolicyName reports the policy bound to a connection ("" = none).
func (st *Stack) PolicyName(conn *mptcp.Connection) string {
	if b := st.bindings[conn.Token()]; b != nil {
		return b.policy
	}
	return ""
}

// Info is the unified introspection snapshot: the application-side mptcp
// view, the bound policy, and the Netlink-side wire view (what a remote
// controller would see from get_info) — one type for apps and experiments.
type Info struct {
	mptcp.Info
	// Policy is the bound controller's registry name ("" = nil policy).
	Policy string
	// Wire is the Netlink-schema subflow view, index-aligned with
	// Subflows.
	Wire []nlmsg.SubflowInfo
}

// Info snapshots a connection through the facade.
func (st *Stack) Info(conn *mptcp.Connection) Info {
	in := Info{Info: conn.Info(), Policy: st.PolicyName(conn)}
	if w := core.WireInfo(conn); w != nil {
		in.Wire = w.Subflows
	}
	return in
}

// --- policy plumbing ---

// checkPolicy resolves a policy name and verifies this stack can host it.
func (st *Stack) checkPolicy(policy string) (ControllerFactory, error) {
	factory, err := LookupController(policy)
	if err != nil {
		return nil, err
	}
	if factory != nil && st.Lib == nil {
		return nil, fmt.Errorf("smapp: stack has no userspace control plane; policy %q needs one (only the nil policy works here)", policy)
	}
	return factory, nil
}

// buildController resolves, defaults and instantiates a policy (nil for
// the nil policy).
func (st *Stack) buildController(policy string, pcfg *ControllerConfig) (controller.Controller, error) {
	factory, err := st.checkPolicy(policy)
	if err != nil || factory == nil {
		return nil, err
	}
	st.fillDefaults(pcfg)
	return factory(*pcfg)
}

// fillDefaults completes a ControllerConfig from the host: controllers
// that need the local address set get the host's interfaces unless the
// caller chose explicitly.
func (st *Stack) fillDefaults(pcfg *ControllerConfig) {
	if len(pcfg.Addrs) == 0 {
		pcfg.Addrs = st.Host.Addrs()
	}
}

func (st *Stack) bind(token uint32, policy string, ctl controller.Controller) {
	h := &policyHost{st: st}
	b := &binding{policy: policy, ctl: ctl, host: h}
	if st.tsh != nil {
		b.tid = st.tsh.Tracer().Register(trace.EntPolicy, 0, st.Host.Name()+"/"+policy)
		h.tid = b.tid
		st.tsh.Rec(st.Host.Clock().Now(), trace.KPolicyAttach, b.tid, uint64(token), 0, 0, 0)
	}
	ctl.Attach(h)
	st.bindings[token] = b
	st.order = append(st.order, token)
	st.Stats.PoliciesAttached++
	for _, ev := range st.pending[token] {
		st.Stats.EventsDispatched++
		h.cbs.Dispatch(ev)
	}
	delete(st.pending, token)
}

func (st *Stack) unbind(token uint32) {
	if b := st.bindings[token]; b != nil && b.tid != 0 {
		st.tsh.Rec(st.Host.Clock().Now(), trace.KPolicyDetach, b.tid, uint64(token), 0, 0, 0)
	}
	delete(st.bindings, token)
	for i, t := range st.order {
		if t == token {
			st.order = append(st.order[:i], st.order[i+1:]...)
			if i < st.fanEnd {
				st.fanEnd--
				if i <= st.fanPos {
					st.fanPos-- // the walk's next step lands on what slid into i
				}
			}
			break
		}
	}
}

// route is the mux: global events fan out to every bound controller in
// attach order (map iteration would break determinism); token events go
// to the owning binding, or into the per-token buffer until one appears.
// The fan-out reaches exactly the bindings that exist when it starts and
// still do at their turn: one unbound by an earlier handler is skipped, one
// bound by a handler waits for the next event.
func (st *Stack) route(ev *nlmsg.Event) {
	switch ev.Kind {
	case nlmsg.EvLocalAddrUp, nlmsg.EvLocalAddrDown:
		st.fanEnd = len(st.order)
		for st.fanPos = 0; st.fanPos < st.fanEnd; st.fanPos++ {
			if b := st.bindings[st.order[st.fanPos]]; b != nil {
				st.Stats.EventsDispatched++
				b.host.cbs.Dispatch(ev)
			}
		}
		st.fanPos, st.fanEnd = 0, 0
		return
	}
	b := st.bindings[ev.Token]
	if b == nil {
		if ev.Kind == nlmsg.EvClosed {
			delete(st.pending, ev.Token) // nothing will ever bind this token
			return
		}
		if len(st.pending[ev.Token]) >= maxPending {
			st.Stats.EventsDropped++
			return
		}
		// ev is the library's reused decode scratch — buffer a copy.
		c := *ev
		st.pending[ev.Token] = append(st.pending[ev.Token], &c)
		st.Stats.EventsBuffered++
		return
	}
	st.Stats.EventsDispatched++
	b.host.cbs.Dispatch(ev)
	if ev.Kind == nlmsg.EvClosed {
		st.unbind(ev.Token)
	}
}

// replay synthesises the connection's current state for a freshly bound
// controller: created (initial tuple), established, and one
// sub-established per live established subflow — the same event sequence
// the controller would have seen had it been attached from the start.
func (st *Stack) replay(conn *mptcp.Connection) {
	b := st.bindings[conn.Token()]
	if b == nil {
		return
	}
	now := st.Lib.Clock().Now()
	deliver := func(ev *nlmsg.Event) {
		ev.At = now
		st.Stats.EventsDispatched++
		b.host.cbs.Dispatch(ev)
	}
	deliver(&nlmsg.Event{Kind: nlmsg.EvCreated, Token: conn.Token(),
		Tuple: conn.InitialTuple(), HasTuple: true})
	if !conn.Established() {
		return
	}
	deliver(&nlmsg.Event{Kind: nlmsg.EvEstablished, Token: conn.Token(),
		Tuple: conn.InitialTuple(), HasTuple: true})
	for _, sf := range conn.Subflows() {
		if sf.Established() {
			deliver(&nlmsg.Event{Kind: nlmsg.EvSubEstablished, Token: conn.Token(),
				Tuple: sf.Tuple(), HasTuple: true})
		}
	}
}

// policyHost is the per-connection core.Lib view handed to a controller:
// Register captures the callbacks into the mux instead of issuing a
// kernel subscription per controller (the stack subscribed once for all),
// and every command passes through to the shared library.
type policyHost struct {
	st  *Stack
	cbs core.Callbacks
	tid uint32 // trace entity of the binding (0 = untraced)
}

// traceCmd records one controller command against the binding's policy
// entity (a nil-guarded store; untraced stacks pay a branch).
func (h *policyHost) traceCmd(cmd uint8, token uint32) {
	if h.tid == 0 {
		return
	}
	h.st.tsh.Rec(h.st.Host.Clock().Now(), trace.KPolicyCmd, h.tid, uint64(token), 0, 0, cmd)
}

// Register implements core.Lib.
func (h *policyHost) Register(cbs core.Callbacks, done func(errno uint32)) {
	h.cbs = cbs
	if done != nil {
		done(0) // the stack's subscription already covers every event
	}
}

// CreateSubflow implements core.Lib.
func (h *policyHost) CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	h.traceCmd(trace.CmdCreateSubflow, token)
	h.st.Lib.CreateSubflow(token, ft, backup, done)
}

// RemoveSubflow implements core.Lib.
func (h *policyHost) RemoveSubflow(token uint32, ft seg.FourTuple, done func(errno uint32)) {
	h.traceCmd(trace.CmdRemoveSubflow, token)
	h.st.Lib.RemoveSubflow(token, ft, done)
}

// SetBackup implements core.Lib.
func (h *policyHost) SetBackup(token uint32, ft seg.FourTuple, backup bool, done func(errno uint32)) {
	h.traceCmd(trace.CmdSetBackup, token)
	h.st.Lib.SetBackup(token, ft, backup, done)
}

// AnnounceAddr implements core.Lib.
func (h *policyHost) AnnounceAddr(token uint32, addr netip.Addr, port uint16, done func(errno uint32)) {
	h.traceCmd(trace.CmdAnnounceAddr, token)
	h.st.Lib.AnnounceAddr(token, addr, port, done)
}

// GetInfo implements core.Lib.
func (h *policyHost) GetInfo(token uint32, done func(info *nlmsg.ConnInfo)) {
	h.st.Lib.GetInfo(token, done)
}

// After implements core.Lib.
func (h *policyHost) After(d time.Duration, fn func()) (cancel func()) {
	return h.st.Lib.After(d, fn)
}

// Clock implements core.Lib.
func (h *policyHost) Clock() core.Clock { return h.st.Lib.Clock() }
