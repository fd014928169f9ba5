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
// its policy mid-transfer (SwitchPolicy). Info adds the bound policy to
// the application-side mptcp snapshot.
//
// Which connection an event belongs to is resolved once, in the token
// table Stack and ControllerStack share (mux.go; DESIGN.md, "The policy
// layer"); a controller never looks a token up again.
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
)

// Config tunes a Stack.
type Config struct {
	// MPTCP configures the endpoint (scheduler, TCP knobs). Its
	// Trace shard also records the stack's policy bindings, switches and
	// every controller command.
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
}

// Stack bundles everything one host needs to run smart MPTCP-enabled
// applications: endpoint, transport, kernel-side Netlink PM, and — through
// the embedded policy mux — the userspace library (Lib, nil on a KernelPM
// or kernel-half stack) and the mux's counters (Stats).
type Stack struct {
	Host      *netem.Host
	Endpoint  *mptcp.Endpoint
	Transport *core.Transport // nil on a KernelPM stack
	PM        *core.NetlinkPM // nil on a KernelPM stack
	mux
}

// New builds the full in-process stack for a host: simulated Netlink
// transport (or a custom one), kernel-side PM, userspace
// library on the sim clock, and the MPTCP endpoint — the paper's Figure 1
// in one constructor. The PM and the library decode into scratch of the
// stack's own.
func New(host *netem.Host, cfg Config) *Stack {
	own := new(struct {
		Stack
		sc core.Scratch
	})
	own.init(host, cfg, &own.sc)
	return &own.Stack
}

// NewSharing is New for a stack whose PM and library decode into sc, which
// every stack on host's event loop may share (core.Scratch): a run of many
// stacks keeps one per loop instead of one per stack. A KernelPM stack
// decodes nothing, and sc may be nil.
func NewSharing(host *netem.Host, cfg Config, sc *core.Scratch) *Stack {
	st := new(Stack)
	st.init(host, cfg, sc)
	return st
}

func (st *Stack) init(host *netem.Host, cfg Config, sc *core.Scratch) {
	st.Host = host
	if cfg.KernelPM != nil {
		st.Endpoint = mptcp.NewEndpoint(host, cfg.MPTCP, cfg.KernelPM)
		return
	}
	st.tsh, st.owner = cfg.MPTCP.Trace, host.Name()
	s := host.Clock()
	tr := cfg.Transport
	if tr == nil {
		tr = core.NewSimTransport(s)
	}
	st.Transport = tr
	st.PM = sc.NewNetlinkPM(s, tr)
	if cfg.CtlFlush > 0 {
		st.PM.SetCoalescing(cfg.CtlFlush, cfg.CtlQueue)
	}
	st.Lib = sc.NewLibrary(tr, core.SimClock{S: s}, 1)
	// One subscription covers every policy the stack will ever host; the
	// mux fans events out per connection.
	st.subscribe(nil)
	st.Endpoint = mptcp.NewEndpoint(host, cfg.MPTCP, st.PM)
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

// Listen accepts connections on a local port and claims them for the
// named policy: each gets a fresh instance when its created event arrives
// — at SYN time, so before accept runs.
func (st *Stack) Listen(port uint16, policy string, pcfg ControllerConfig, accept func(*mptcp.Connection)) error {
	// Instantiate once up front so a bad config fails the Listen call, not
	// every connection.
	ctl, err := st.buildController(policy, &pcfg)
	if err != nil {
		return err
	}
	if ctl == nil {
		delete(st.ports, port) // a re-Listen with the nil policy gives the port up
	} else {
		if st.ports == nil {
			st.ports = make(map[uint16]*claim)
		}
		st.ports[port] = &claim{policy, pcfg}
	}
	st.Endpoint.Listen(port, accept)
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
	st.replay(conn, st.bind(token, policy, ctl))
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

// Info is the introspection snapshot: the application-side mptcp view and
// the bound policy — one type for apps and experiments.
type Info struct {
	mptcp.Info
	// Policy is the bound controller's registry name ("" = nil policy).
	Policy string
}

// Info snapshots a connection through the facade.
func (st *Stack) Info(conn *mptcp.Connection) Info {
	return Info{Info: conn.Info(), Policy: st.PolicyName(conn)}
}

// --- policy plumbing ---

// buildController resolves a policy name, verifies this stack can host it,
// defaults the config's addresses to the host's interfaces and
// instantiates it (nil for the nil policy).
func (st *Stack) buildController(policy string, pcfg *ControllerConfig) (controller.Controller, error) {
	factory, err := LookupController(policy)
	if err != nil || factory == nil {
		return nil, err
	}
	if st.Lib == nil {
		return nil, fmt.Errorf("smapp: stack has no userspace control plane; policy %q needs one (only the nil policy works here)", policy)
	}
	if len(pcfg.Addrs) == 0 {
		pcfg.Addrs = st.Host.Addrs() // what fullmesh, backup and stream need
	}
	return factory(*pcfg)
}

// replay synthesises the connection's current state for a freshly bound
// controller: created (initial tuple), established, and one
// sub-established per live established subflow — the same event sequence
// the controller would have seen had it been attached from the start.
func (st *Stack) replay(conn *mptcp.Connection, b *binding) {
	now := st.Lib.Clock().Now()
	deliver := func(ev *nlmsg.Event) {
		ev.At = now
		st.Stats.EventsDispatched++
		b.cbs.Dispatch(ev)
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
