package scenario

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/smapp"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// bulkSpec builds a minimal one-run scenario: a bulk transfer over the
// direct link, stopping when the sink completes.
func bulkSpec(bytes int, events []Event) (*Spec, *Bulk) {
	wl := &Bulk{Bytes: bytes}
	run := &RunSpec{
		Label:    "bulk",
		Topology: Direct{Link: netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}},
		Workload: wl,
		Settle:   time.Millisecond,
		Events:   events,
		Probes: []Probe{
			Scalar("done_s", func(rt *Run) float64 { return rt.Sim.Now().Seconds() }),
			Scalar("rcv_bytes", func(rt *Run) float64 { return float64(wl.Sink.Received) }),
		},
		Stop: Stop{Horizon: 30 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
	}
	return &Spec{
		Name:  "test-bulk",
		Title: "engine test",
		Desc:  "bulk over a direct link",
		Runs:  []*RunSpec{run},
		Render: func(res *stats.Result, runs []*Run) {
			res.Section("done")
			res.Printf("received %d bytes\n", wl.Sink.Received)
		},
	}, wl
}

func TestExecuteRunsSpecEndToEnd(t *testing.T) {
	sp, wl := bulkSpec(256<<10, nil)
	res := Execute(sp, 1)
	if !wl.Sink.Done {
		t.Fatal("bulk transfer did not complete")
	}
	if got := res.Scalars["rcv_bytes"]; got < 256<<10 {
		t.Fatalf("rcv_bytes = %v", got)
	}
	if res.Scalars["done_s"] <= 0 || res.Scalars["done_s"] > 30 {
		t.Fatalf("done_s = %v", res.Scalars["done_s"])
	}
	for _, want := range []string{"engine test", "== done ==", "received"} {
		if !strings.Contains(res.Report, want) {
			t.Fatalf("report missing %q:\n%s", want, res.Report)
		}
	}
}

func TestExecuteDeterministicPerSeed(t *testing.T) {
	runit := func() *stats.Result {
		sp, _ := bulkSpec(128<<10, nil)
		return Execute(sp, 3)
	}
	a, b := runit(), runit()
	if a.Report != b.Report {
		t.Fatal("same-seed runs produced different reports")
	}
	if a.Scalars["done_s"] != b.Scalars["done_s"] {
		t.Fatalf("done_s diverged: %v vs %v", a.Scalars["done_s"], b.Scalars["done_s"])
	}
}

func TestEventsFire(t *testing.T) {
	// Black out the wire before the handshake can finish: the transfer
	// must never complete within the horizon.
	ev := SetLossAt(2*time.Millisecond, "wire", 1.0)
	wl := &Bulk{Bytes: 64 << 10}
	run := &RunSpec{
		Label:    "blackout",
		Topology: Direct{Link: netem.LinkConfig{RateBps: 50e6, Delay: 20 * time.Millisecond}},
		Workload: wl,
		Settle:   time.Millisecond,
		Events:   []Event{ev},
		Stop:     Stop{Horizon: 2 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
	}
	Execute(&Spec{Name: "test-blackout", Runs: []*RunSpec{run}}, 1)
	if wl.Sink.Done {
		t.Fatal("transfer completed through a fully lossy link")
	}
}

func TestLossRampBuildsSteps(t *testing.T) {
	evs := LossRamp("path0", time.Second, 500*time.Millisecond, 0.1, 0.2, 0.3)
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[1].At != 1500*time.Millisecond || evs[2].At != 2*time.Second {
		t.Fatalf("ramp times wrong: %v %v", evs[1].At, evs[2].At)
	}
}

func TestFlapClientIface(t *testing.T) {
	w := sim.NewWorld(1, 1)
	net := Star{
		Clients: 3, Ifaces: 2,
		Access:     netem.LinkConfig{RateBps: 10e6, Delay: time.Millisecond},
		Bottleneck: netem.LinkConfig{RateBps: 100e6, Delay: time.Millisecond},
	}.Build(w, 1).normalize()
	rt := &Run{Net: net}
	up := func(client, addrIdx int) bool {
		ep := net.Clients[client]
		return ep.Host.Iface(ep.Addrs[addrIdx]).Up()
	}

	// Client 0's interface 1 goes down, and only it.
	evs := FlapClientIface(time.Second, time.Second, 0, 1)
	evs[0].Do(rt)
	if up(0, 1) || !up(1, 1) || !up(2, 1) || !up(0, 0) {
		t.Fatal("FlapClientIface touched the wrong client interface")
	}
	evs[1].Do(rt)
	if !up(0, 1) {
		t.Fatal("FlapClientIface did not restore the interface")
	}

	// Only client 2's interface 0 goes down.
	evs = FlapClientIface(time.Second, time.Second, 2, 0)
	evs[0].Do(rt)
	if up(2, 0) || !up(0, 0) || !up(1, 0) {
		t.Fatal("FlapClientIface targeted the wrong device")
	}
	evs[1].Do(rt)
	if !up(2, 0) {
		t.Fatal("FlapClientIface did not restore the interface")
	}

	// An out-of-range client index is a scenario bug.
	defer func() {
		if recover() == nil {
			t.Fatal("bad flap target did not panic")
		}
	}()
	FlapClientIface(0, 0, 9, 0)[0].Do(rt)
}

// A loss ramp to blackout on both paths of the §4.1 NAT topology stalls a
// fullmesh bulk transfer that completes well inside the horizon without it.
func TestNATPathLossRampStallsTransfer(t *testing.T) {
	link := netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond}
	transfer := func(events []Event) bool {
		wl := &Bulk{Bytes: 4 << 20}
		run := &RunSpec{
			Label:    "nat-ramp",
			Topology: NATPath{P0: link, P1: link, Idle: 60 * time.Second, Expiry: netem.ExpiryRST},
			Workload: wl,
			Policy:   "fullmesh",
			Settle:   time.Millisecond,
			Events:   events,
			Stop:     Stop{Horizon: 5 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
		}
		Execute(&Spec{Name: "test-nat-ramp", Runs: []*RunSpec{run}}, 1)
		return wl.Sink.Done
	}
	if !transfer(nil) {
		t.Fatal("4 MB transfer through the NAT did not complete without a loss ramp")
	}
	ramp := append(
		LossRamp("path0", 100*time.Millisecond, 100*time.Millisecond, 0.5, 1.0),
		LossRamp("path1", 100*time.Millisecond, 100*time.Millisecond, 0.5, 1.0)...)
	if transfer(ramp) {
		t.Fatal("4 MB transfer completed despite the loss ramp to blackout")
	}
}

func TestStopTailCapsAtHorizon(t *testing.T) {
	wl := &Bulk{Bytes: 32 << 10}
	run := &RunSpec{
		Label:    "tail",
		Topology: Direct{Link: netem.LinkConfig{RateBps: 100e6, Delay: time.Millisecond}},
		Workload: wl,
		Settle:   time.Millisecond,
		Stop: Stop{
			Horizon: 5 * time.Second,
			Poll:    10 * time.Millisecond,
			Until:   wl.Done,
			Tail:    time.Hour, // must clamp to the horizon
		},
	}
	res := stats.NewResult("tail")
	rt := execOne(run, 1, res)
	if now := rt.Sim.Now().Seconds(); now > 5.0 {
		t.Fatalf("tail ran past the horizon: now=%vs", now)
	}
}

func TestMultiRunSeedOffsets(t *testing.T) {
	mk := func(off int64) (*RunSpec, *Bulk) {
		wl := &Bulk{Bytes: 32 << 10}
		return &RunSpec{
			Label:      "r",
			SeedOffset: off,
			Topology:   Direct{Link: netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}},
			Workload:   wl,
			Settle:     time.Millisecond,
			Stop:       Stop{Horizon: 10 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
		}, wl
	}
	r0, _ := mk(0)
	r1, _ := mk(1000)
	sp := &Spec{Name: "test-offsets", Runs: []*RunSpec{r0, r1}}
	var seeds []int64
	sp.Render = func(_ *stats.Result, runs []*Run) {
		for _, rt := range runs {
			seeds = append(seeds, rt.Seed)
		}
	}
	Execute(sp, 7)
	if len(seeds) != 2 || seeds[0] != 7 || seeds[1] != 1007 {
		t.Fatalf("run seeds = %v, want [7 1007]", seeds)
	}
}

// fanOutSpec is a scale-shaped run — four two-homed clients streaming
// through one bottleneck — reduced to what the simulation did.
func fanOutSpec(edit func(*RunSpec)) *Spec {
	wl := &FanOut{Bytes: 64 << 10}
	run := &RunSpec{
		Label: "cell",
		Topology: Star{
			Clients: 4, Ifaces: 2,
			Access:     netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond},
			Bottleneck: netem.LinkConfig{RateBps: 200e6, Delay: 500 * time.Microsecond},
		},
		Workload: wl,
		Stop:     Stop{Horizon: 30 * time.Second},
	}
	edit(run)
	return &Spec{
		Name: "test-fanout",
		Runs: []*RunSpec{run},
		Render: func(res *stats.Result, runs []*Run) {
			rt := runs[0]
			done := res.Sample("completed at (s)")
			for _, at := range wl.CompletedAt {
				done.Add(at.Seconds())
			}
			res.Scalars["completed"] = float64(wl.Completed())
			res.Scalars["events"] = float64(rt.Sim.Processed())
			res.Scalars["server_pkts"] = float64(rt.Net.Server.Stats.Delivered)
			for i, st := range rt.Stacks {
				if st.PM != nil || st.Lib != nil {
					res.Scalars["netlink_stacks"]++
				}
				res.Scalars["client_pkts"] += float64(rt.Net.Clients[i].Host.Stats.Delivered)
			}
		},
	}
}

// TestKernelCellIsKernelPM pins what an in-kernel policy name is: a run
// whose Policy names one of smapp.KernelPMs builds every client stack with
// that path manager (smapp.Config.KernelPM) and no Netlink control plane,
// and dials with no controller; a controller's name builds the Netlink
// control plane on every stack.
func TestKernelCellIsKernelPM(t *testing.T) {
	// run returns the cell's encoded result and the type of the in-kernel
	// path manager each client stack was built with.
	run := func(policy string) (string, []string) {
		var pms []string
		buf, err := json.Marshal(Execute(fanOutSpec(func(rs *RunSpec) {
			rs.Policy = policy
			rs.StackConfig = func(_ *Run, _ int, cfg *smapp.Config) { pms = append(pms, fmt.Sprintf("%T", cfg.KernelPM)) }
		}), 7).Data())
		if err != nil {
			t.Fatal(err)
		}
		return string(buf), pms
	}
	for policy, want := range map[string]string{"kernel": "*pm.FullMesh", "kernel-ndiffports": "*pm.NDiffPorts", "kernel-none": "mptcp.NopPM"} {
		out, pms := run(policy)
		if strings.Contains(out, `"netlink_stacks"`) || !strings.Contains(out, `"completed":4`) {
			t.Errorf("%s: the cell built a Netlink control plane, or did not finish its four transfers:\n%s", policy, out)
		}
		if !slices.Equal(pms, slices.Repeat([]string{want}, 4)) {
			t.Errorf("%s: client stacks built with %v, want four %s", policy, pms, want)
		}
	}
	userspace, pms := run("fullmesh")
	kernel, _ := run("kernel")
	if userspace == kernel || !strings.Contains(userspace, `"netlink_stacks":4`) || !slices.Equal(pms, slices.Repeat([]string{"<nil>"}, 4)) {
		t.Fatalf("the fullmesh controller cell is not a userspace run (in-kernel managers %v):\n%s", pms, userspace)
	}
}

// TestScenarioEventsAllocConstant arms and walks timelines of 100 and
// 100 000 events of the repeating kinds (flaps, loss steps). Events are
// data and the World walks the spec's slice in place, so a timeline
// allocates its firing order (on the first run after arming) and nothing
// per entry: the same count at either length. One engine event per entry
// and a closure per constructor made it 15 000 objects for 10 000 events.
func TestScenarioEventsAllocConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	timeline := func(n int) []Event {
		var evs []Event
		for i := 0; len(evs) < n; i++ {
			at := time.Duration(i) * time.Millisecond
			evs = append(evs, FlapClientIface(at, time.Millisecond, i%3, 1)...)
			evs = append(evs, SetLossAt(at, "bottleneck", 0.5), SetLossAt(at+time.Millisecond, "bottleneck", 0))
		}
		return evs
	}
	// Each measured pass gets a fresh run: arming is once per run.
	allocs := func(evs []Event) float64 {
		const passes = 4
		var rts []*Run
		for range passes + 1 { // AllocsPerRun warms up with one more
			w := sim.NewWorld(1, 1)
			net := Star{
				Clients: 3, Ifaces: 2,
				Access:     netem.LinkConfig{RateBps: 10e6, Delay: time.Millisecond},
				Bottleneck: netem.LinkConfig{RateBps: 100e6, Delay: time.Millisecond},
			}.Build(w, 1).normalize()
			rts = append(rts, &Run{Spec: &RunSpec{Events: evs}, Sim: w, Net: net})
		}
		all := rts
		avg := testing.AllocsPerRun(passes, func() {
			w := rts[0].Sim.(*sim.World)
			rts[0].armEvents(w)
			w.RunFor(time.Duration(len(evs)) * time.Millisecond)
			rts = rts[1:]
		})
		for _, rt := range all {
			if done := rt.Sim.(*sim.World).RuntimeStats().Globals; done != uint64(len(evs)) {
				t.Fatalf("%d of %d events fired", done, len(evs))
			}
		}
		return avg
	}
	if small, big := allocs(timeline(100)), allocs(timeline(100000)); small > 1 || big != small {
		t.Fatalf("arming and walking 100 events allocated %.0f objects, 100 000 events %.0f: want at most 1 (the firing order) for both",
			small, big)
	}
	evs := timeline(4)
	if avg := testing.AllocsPerRun(100, func() { evs[0] = SetLossAt(0, "bottleneck", 0.5) }); avg != 0 {
		t.Fatalf("SetLossAt allocates %.0f objects", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { evs = FlapClientIface(0, time.Second, 2, 1) }); avg != 1 {
		t.Fatalf("FlapClientIface allocates %.0f objects, want 1 (the two-event slice)", avg)
	}
}

// TestStarRefusesAddressOverflow: a Star past its address plan (255
// interfaces or servers, 51 000 clients) would wrap an address byte and
// give two hosts one address; Build panics instead, and on a client count
// before it builds any host.
func TestStarRefusesAddressOverflow(t *testing.T) {
	build := func(s Star) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		s.Build(sim.New(1), 1)
		return "no panic"
	}
	links := make([]StarLink, 256)
	for j := range links {
		links[j].Name = fmt.Sprintf("l%d", j)
	}
	for _, c := range []struct {
		name string
		star Star
		want string
	}{
		{"ifaces", Star{Clients: 1, Ifaces: 256}, "256 interfaces is over its address plan's 255"},
		{"host links", Star{Clients: 1, Hosts: func(int) StarHost { return StarHost{Name: "h", Links: links} }}, "256 interfaces is over its address plan's 255"},
		{"servers", Star{Clients: 1, Servers: 256}, "256 servers is over its address plan's 255"},
	} {
		if msg := build(c.star); !strings.Contains(msg, c.want) {
			t.Errorf("%s: Build = %q, want a panic saying %q", c.name, msg, c.want)
		}
	}
	built := 0
	msg := build(Star{Clients: 51001, Hosts: func(int) StarHost { built++; panic("host built") }})
	if built != 0 || !strings.Contains(msg, "51001 clients is over its address plan's 51000") {
		t.Fatalf("51001 clients: Build = %q after %d hosts, want an address-plan panic before any", msg, built)
	}
}

// tickWorkload drives the simulation itself, as a request/response loop
// does: every client ticks at 10, 20 and 30 ms (each client's count is its
// own entity's), and Client runs the world to 40 ms in 5 ms steps.
type tickWorkload struct{ ticks []int }

func (w *tickWorkload) Server(*Run) {}

func (w *tickWorkload) Client(rt *Run) {
	w.ticks = make([]int, len(rt.Net.Clients))
	for i := range rt.Net.Clients {
		c := rt.ClientClock(i)
		for _, at := range []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond} {
			c.Schedule(at, "tick", func() { w.ticks[i]++ })
		}
	}
	for rt.Sim.Now() < sim.Time(40*time.Millisecond) {
		rt.Sim.RunFor(5 * time.Millisecond)
	}
}

// TestEventSize pins a timeline entry at 48 bytes, with no name: a fleet
// of 1000 devices holds about 20 000 of them for its whole run.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 48 {
		t.Fatalf("Event is %d bytes, over its pinned 48", sz)
	}
}

// TestTimelineOrder runs a timeline listed out of time order under a
// workload that drives the simulation itself (zero Stop): every entry
// fires; entries fire by time and, at equal times, in spec order; an entry
// at t sees every client's tick at or before t; the history is the same
// at 1 and 4 shards; and an entry already in the past when the timeline
// is first read panics, naming its Fn's symbol and its time.
func TestTimelineOrder(t *testing.T) {
	var early string // how the panic names the entry at 2 ms
	run := func(shards int, settle time.Duration) []string {
		wl := &tickWorkload{}
		var log []string
		at := func(ms int, name string) Event {
			return Event{At: time.Duration(ms) * time.Millisecond, Fn: func(rt *Run, _ EventArg) {
				n := 0
				for _, k := range wl.ticks {
					n += k
				}
				log = append(log, fmt.Sprintf("%s@%v saw %d", name, rt.Sim.Now(), n))
			}}
		}
		rs := &RunSpec{
			Topology: Star{
				Clients: 3, Ifaces: 1,
				Access:     netem.LinkConfig{RateBps: 10e6, Delay: time.Millisecond},
				Bottleneck: netem.LinkConfig{RateBps: 100e6, Delay: time.Millisecond},
			},
			Workload: wl,
			Shards:   shards,
			Settle:   settle,
			Events:   []Event{at(30, "late"), at(20, "a"), at(10, "first"), at(20, "b"), at(2, "early"), at(20, "c")},
		}
		early = fmt.Sprintf("timeline entry %q at 2ms", sim.FuncName(rs.Events[4].Fn))
		Execute(&Spec{Name: "test-timeline", Runs: []*RunSpec{rs}}, 1)
		return log
	}
	want := []string{"early@2ms saw 0", "first@10ms saw 3", "a@20ms saw 6", "b@20ms saw 6", "c@20ms saw 6", "late@30ms saw 9"}
	for _, shards := range []int{1, 4} {
		if got := run(shards, time.Millisecond); !slices.Equal(got, want) {
			t.Errorf("shards=%d: fired %q, want %q", shards, got, want)
		}
	}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run(1, 5*time.Millisecond)
		return
	}()
	if !strings.Contains(msg, early+" before now 5ms") || !strings.Contains(early, "TestTimelineOrder") {
		t.Fatalf("an entry before the settle time: panic %q, want one naming it", msg)
	}
}
