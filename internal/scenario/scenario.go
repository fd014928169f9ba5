// Package scenario is the declarative experiment layer above smapp, topo,
// and app: a scenario is data — a topology, a workload, a policy, probes,
// and a stop condition — not 150 lines of bespoke wiring. The engine
// (Execute) turns a Spec into a stats.Result through a fixed sequence
// that mirrors how every paper experiment was hand-written, so specs stay
// byte-compatible with the reports the golden tests pin:
//
//	build topology → client stacks (one per endpoint) → server endpoints →
//	workload.Server → settle → arm events → workload.Client → arm probes →
//	run to the stop condition → collect probes → render
//
// Specs are registered by name (Register) and parameterised by string
// key=value Params, which is what makes `mpexp run <scenario>` and sweep
// manifests (Manifest.Plan) possible: every scenario is runnable, listable,
// and sweepable without scenario-specific CLI code.
package scenario

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Spec is one named scenario: a report header, one or more simulation
// runs, and a Render hook that turns the collected samples into the
// report's sections. Single-figure scenarios have one run; CDF figures
// have one per curve or trial. A Spec is one configuration: running it
// once per scheduler, controller or parameter value is Manifest.Plan's
// cross product, not more runs here.
type Spec struct {
	Name  string
	Title string // report header title ("" = no header)
	Desc  string // header description

	Runs []*RunSpec

	// Render appends the report sections after every run completed. It
	// sees the shared Result plus the per-run contexts (for workload
	// state, wall-clock timings, and controller introspection).
	Render func(res *stats.Result, runs []*Run)
}

// RunSpec describes one simulation run declaratively.
type RunSpec struct {
	// Label identifies the run in reports and sweep cells.
	Label string
	// SeedOffset is added to the scenario seed for this run, so repeated
	// trials within one spec draw independent randomness (Fig. 2c spaces
	// trials 1000 apart).
	SeedOffset int64

	Topology Topology
	Workload Workload

	// Sched is the registered packet scheduler ("" = lowest-rtt).
	Sched string
	// Policy is the path manager of every client stack, by one of the
	// names smapp.Policies lists: an in-kernel path manager the stacks are
	// built with, or a controller bound to every dialed connection. ""
	// is the nil policy: the Netlink control plane with no controller.
	Policy string
	// PolicyCfg parameterises the policy. Empty Addrs default to the
	// client host's interface addresses.
	PolicyCfg smapp.ControllerConfig
	// StackConfig, when non-nil, adjusts client i's stack configuration
	// after the engine filled it in (scheduler, trace shard, metric
	// handles, path manager) and before the stack is built — for the few
	// runs whose stacks differ from the default: the stressed Netlink
	// model of §4.5, ctlstress's tapped transport and flush window.
	StackConfig func(rt *Run, i int, cfg *smapp.Config)

	// Shards is the number of worker event loops the run's simulation is
	// sharded across (0 or 1 = one loop). Results are bit-identical at
	// any shard count; topologies that fold onto a single shard reject
	// Shards > 1 at build time. Usually set by the `shards=` parameter.
	Shards int

	// Settle runs the simulation between Listen and the first dial, so
	// the listener exists before SYNs arrive (the paper runs use 1 ms).
	Settle time.Duration

	Events []Event
	Probes []Probe
	Stop   Stop

	// Trace, when non-nil, records the run's protocol/fabric events
	// into a per-run trace.Tracer (see EnableTrace; usually set by the
	// `trace=` parameter rather than by spec factories).
	Trace *TraceSpec
	// Metrics, when non-nil, records runtime metrics into a per-run
	// registry (see EnableMetrics; usually set by the `metrics=`
	// parameter rather than by spec factories).
	Metrics *MetricsSpec
}

// Event is a scheduled network change: a loss step, an interface flap, a
// middlebox reconfiguration. It is data: Fn is a package-level function for
// every event the timelines repeat (flaps, loss steps, fleet fades) and what
// it acts on rides in Arg, so a timeline of ten thousand events is one slice
// and no closures. A one-off intervention may still pass a closure as Fn and
// ignore Arg.
//
// An event keeps no name: a timeline entry that is already in the past
// when it is read panics naming Fn's symbol, as the simulator names the
// events it schedules.
type Event struct {
	At  time.Duration
	Fn  func(rt *Run, a EventArg)
	Arg EventArg
}

// Do applies the event to a run.
func (e Event) Do(rt *Run) { e.Fn(rt, e.Arg) }

// EventArg is what an Event acts on; each Fn reads the fields it needs.
type EventArg struct {
	Name   string  // a link name
	Client int32   // client ordinal in the topology
	Addr   int32   // index into the client's interface addresses
	Loss   float64 // loss ratio to install
}

// timeline is a run's Events as its World walks them: entry k is
// evs[order[k]]. order is a stable sort of the spec's indices by At, made
// per run because the spec's slice is shared by runs and by parallel seeds,
// and made on the first read, which is the World's first run after arming:
// for a run its Stop drives that is after the probes' Arm, so the sort is
// not set-up work.
type timeline struct {
	rt    *Run
	evs   []Event
	order []int32
}

func (t *timeline) Len() int          { return len(t.evs) }
func (t *timeline) Name(k int) string { return sim.FuncName(t.evs[t.order[k]].Fn) }
func (t *timeline) Fire(k int)        { t.evs[t.order[k]].Do(t.rt) }

func (t *timeline) At(k int) sim.Time {
	if t.order == nil {
		t.sort()
	}
	return sim.Time(t.evs[t.order[k]].At)
}

// sort computes the firing order; it is the only allocation a timeline
// makes, whatever its length.
func (t *timeline) sort() {
	evs := t.evs
	t.order = make([]int32, len(evs))
	for i := range t.order {
		t.order[i] = int32(i)
	}
	slices.SortFunc(t.order, func(a, b int32) int {
		if c := cmp.Compare(evs[a].At, evs[b].At); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// armEvents hands the spec's events to the world as its timeline, before
// the workload dials: a workload that drives the simulation itself sees
// them fire too. Interventions touch entities on arbitrary shards, so they
// fire with all shards parked at the event's timestamp, and equal
// timestamps fire in spec order.
func (rt *Run) armEvents(w *sim.World) {
	if len(rt.Spec.Events) > 0 {
		rt.timeline = timeline{rt: rt, evs: rt.Spec.Events}
		w.Walk(&rt.timeline)
	}
}

// Stop declares when a run ends. Zero value: the workload drives the
// simulation itself (request/response loops). Horizon alone: run straight
// to the cutoff. With Until: poll every Poll until the condition holds or
// the horizon passes, then run Tail longer (capped at the horizon) so
// traces get their closing window.
type Stop struct {
	Horizon time.Duration
	Poll    time.Duration
	Until   func(rt *Run) bool
	Tail    time.Duration
}

func (st Stop) run(rt *Run) {
	if st.Horizon <= 0 {
		return
	}
	deadline := sim.Time(st.Horizon)
	if st.Until == nil {
		rt.Sim.RunUntil(deadline)
		return
	}
	poll := st.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for rt.Sim.Now() < deadline && !st.Until(rt) {
		rt.Sim.RunFor(poll)
	}
	rt.Sim.RunUntil(min(rt.Sim.Now().Add(st.Tail), deadline))
}

// Run is the live context of one executing RunSpec, handed to workloads,
// probes, events, stop conditions, and the final Render.
type Run struct {
	Spec *RunSpec
	Seed int64 // the run's simulator seed (scenario seed + offset)

	// Sim drives the simulation (a sim.World; one shard unless the spec
	// asks for more). Workload and probe callbacks that fire while the
	// simulation runs must not touch it — they read time and schedule
	// work through the host clocks (ClientClock/ServerClock) instead.
	Sim sim.Runner
	Net *Net
	// Stacks has one client stack per Net.Clients entry, built by the
	// engine; Stack == Stacks[0].
	Stacks   []*smapp.Stack
	Stack    *smapp.Stack
	ServerEp *mptcp.Endpoint
	// ServerEps has one listening endpoint per Net.Servers entry;
	// ServerEps[0] == ServerEp.
	ServerEps []*mptcp.Endpoint
	Conn      *mptcp.Connection // last connection DialDefault opened
	Tracer    *trace.Tracer     // nil unless the run is traced
	// Registry holds the run's metrics (nil unless the run records them),
	// filled by the metrics probe's harvest at collect time.
	Registry *metrics.Registry
	timeline timeline // Spec.Events in firing order (armEvents)
	// scratch is the Netlink decode scratch of each shard's loop, shared
	// by the control planes of every client stack on it (core.Scratch);
	// nil until the first stack with one.
	scratch []core.Scratch
	// kernelPM builds each client stack's in-kernel path manager when the
	// policy names one; nil when it names a controller or is nil.
	kernelPM smapp.KernelPMFactory

	Result *stats.Result
	Wall   time.Duration // wall-clock cost of the whole run
}

// ClientClock returns client i's host clock — the loop that owns the
// client's entities. Workload callbacks running inside the simulation
// read time and schedule follow-up work through it.
func (rt *Run) ClientClock(i int) sim.Clock { return rt.Net.Clients[i].Host.Clock() }

// ServerClock returns the (first) server's host clock.
func (rt *Run) ServerClock() sim.Clock { return rt.Net.Server.Clock() }

// listenPort is the port every server listens on and every client dials.
const listenPort = 80

// mptcpConfig is the endpoint configuration of every stack of the run,
// client or server: the run's scheduler and the host's own trace shard
// (nil when untraced).
func (rt *Run) mptcpConfig(h *netem.Host) mptcp.Config {
	return mptcp.Config{Scheduler: rt.Spec.Sched, Trace: rt.Tracer.Shard(h.Name())}
}

// newStack builds client i's stack — the only place a run gets one.
func (rt *Run) newStack(i int) *smapp.Stack {
	h := rt.Net.Clients[i].Host
	cfg := smapp.Config{MPTCP: rt.mptcpConfig(h)}
	if rt.kernelPM != nil {
		kpm, err := rt.kernelPM(rt.Spec.PolicyCfg)
		if err != nil {
			panic(err) // the runner reports this as the seed's failure
		}
		cfg.KernelPM = kpm
	}
	if rt.Spec.StackConfig != nil {
		rt.Spec.StackConfig(rt, i, &cfg)
	}
	var sc *core.Scratch // a KernelPM stack decodes no Netlink
	if cfg.KernelPM == nil {
		if rt.scratch == nil {
			rt.scratch = make([]core.Scratch, max(rt.Spec.Shards, 1))
		}
		sc = &rt.scratch[sim.ShardIndex(h.Clock())]
	}
	return smapp.NewSharing(h, cfg, sc)
}

// dial opens client i's connection — from its first address to server
// i mod len(Servers) — with the run's controller bound, or the nil policy
// on a stack built with an in-kernel path manager; empty PolicyCfg.Addrs
// default to the client's interface addresses. Dial errors panic: a
// scenario that cannot dial is broken, and the runner converts panics into
// per-seed errors.
func (rt *Run) dial(i int, cb mptcp.ConnCallbacks) *mptcp.Connection {
	cl := rt.Net.Clients[i]
	policy := rt.Spec.Policy
	if rt.kernelPM != nil {
		policy = ""
	}
	pcfg := rt.Spec.PolicyCfg
	if len(pcfg.Addrs) == 0 {
		pcfg.Addrs = cl.Addrs
	}
	conn, err := rt.Stacks[i].Dial(cl.Addrs[0], rt.Net.ServerAddrs[i%len(rt.Net.ServerAddrs)],
		listenPort, policy, pcfg, cb)
	if err != nil {
		panic(err)
	}
	return conn
}

// DialDefault dials the first client's connection and remembers it as
// rt.Conn.
func (rt *Run) DialDefault(cb mptcp.ConnCallbacks) *mptcp.Connection {
	rt.Conn = rt.dial(0, cb)
	return rt.Conn
}

// Execute runs every RunSpec of a scenario at the given seed and returns
// the rendered result. It is deterministic: the same spec and seed always
// produce the same simulated bytes (wall-clock fields excepted).
func Execute(sp *Spec, seed int64) *stats.Result {
	res := stats.NewResult(sp.Name)
	if sp.Title != "" {
		res.Report = stats.Header(sp.Title, sp.Desc)
	}
	runs := make([]*Run, 0, len(sp.Runs))
	for _, rs := range sp.Runs {
		runs = append(runs, execOne(rs, seed, res))
	}
	if sp.Render != nil {
		sp.Render(res, runs)
	}
	return res
}

// execOne executes a single run following the fixed phase order the
// package doc describes.
func execOne(rs *RunSpec, baseSeed int64, res *stats.Result) *Run {
	start := time.Now()
	seed := baseSeed + rs.SeedOffset
	nsh := rs.Shards
	if nsh < 1 {
		nsh = 1
	}
	// Every run executes on a sim.World — one shard by default — so the
	// event order and per-entity random streams are identical at any
	// shard count: `shards=8` reproduces `shards=1` bit for bit.
	w := sim.NewWorld(seed, nsh)
	// The run's loops got and put on free lists of their own; handing
	// them back lets the next run, on any goroutine, reuse what this one
	// returned.
	defer w.Flush()
	rt := &Run{Spec: rs, Seed: seed, Sim: w, Result: res}
	if rs.Trace != nil {
		rt.Tracer = trace.New(rs.Trace.Cap)
	}
	if rs.Metrics != nil {
		rt.Registry = metrics.New(nsh)
		w.EnableBarrierTiming(true)
	}
	rt.Net = rs.Topology.Build(w, seed).normalize()
	if err := w.Finalize(); err != nil {
		panic(err) // the runner reports this as the seed's failure
	}
	rt.wireTrace()

	kernelPM, err := smapp.LookupPolicy(rs.Policy)
	if err != nil {
		panic(err) // Build checked the name; the runner reports this as the seed's failure
	}
	rt.kernelPM = kernelPM
	rt.Stacks = make([]*smapp.Stack, len(rt.Net.Clients))
	for i := range rt.Stacks {
		rt.Stacks[i] = rt.newStack(i)
	}
	rt.Stack = rt.Stacks[0]
	for _, srv := range rt.Net.Servers {
		rt.ServerEps = append(rt.ServerEps, mptcp.NewEndpoint(srv, rt.mptcpConfig(srv), nil))
	}
	rt.ServerEp = rt.ServerEps[0]
	rs.Workload.Server(rt)
	if rs.Settle > 0 {
		rt.Sim.RunFor(rs.Settle)
	}
	rt.armEvents(w)
	rs.Workload.Client(rt)
	for _, p := range rs.Probes {
		if p.Arm != nil {
			p.Arm(rt)
		}
	}
	rs.Stop.run(rt)
	for _, p := range rs.Probes {
		if p.Collect != nil {
			p.Collect(rt)
		}
	}
	rt.Wall = time.Since(start)
	return rt
}

// SetLossAt returns the degrade event the loss figures use: at t, set
// the forward (client→server) loss ratio of the named link — a netem
// qdisc on the degraded egress, as in the paper's Mininet setups.
func SetLossAt(at time.Duration, link string, loss float64) Event {
	return Event{At: at, Fn: setForwardLoss, Arg: EventArg{Name: link, Loss: loss}}
}

func setForwardLoss(rt *Run, a EventArg) { rt.Net.Link(a.Name).AB.SetLoss(a.Loss) }

// LossRamp returns one degrade event per step: the named link's forward
// loss walks through losses, starting at `start`, one step every `step`.
func LossRamp(link string, start, step time.Duration, losses ...float64) []Event {
	evs := make([]Event, 0, len(losses))
	for i, l := range losses {
		evs = append(evs, SetLossAt(start+time.Duration(i)*step, link, l))
	}
	return evs
}

// FlapClientIface takes client `client`'s addrIdx-th interface down at
// `at` and back up `dur` later: the §4.1 interface outage. Fleet mobility
// schedules compile their WiFi↔LTE handovers down to it, one flap per
// device.
func FlapClientIface(at, dur time.Duration, client, addrIdx int) []Event {
	a := EventArg{Client: int32(client), Addr: int32(addrIdx)}
	return []Event{
		{At: at, Fn: ifaceDown, Arg: a},
		{At: at + dur, Fn: ifaceUp, Arg: a},
	}
}

func ifaceDown(rt *Run, a EventArg) { setIface(rt, a, false) }
func ifaceUp(rt *Run, a EventArg)   { setIface(rt, a, true) }

func setIface(rt *Run, a EventArg, up bool) {
	ep := rt.Net.ClientAt(int(a.Client))
	ep.Host.SetIfaceUp(ep.Addrs[a.Addr], up)
}
