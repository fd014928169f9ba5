package scenario

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/pm"
	"repro/internal/sim"
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

func TestFlapIfaceTargetsClientAndHost(t *testing.T) {
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

	// The old signature still flaps the FIRST client.
	evs := FlapIface(time.Second, time.Second, 1)
	evs[0].Do(rt)
	if up(0, 1) || !up(1, 1) || !up(2, 1) {
		t.Fatal("FlapIface touched the wrong client interface")
	}
	evs[1].Do(rt)
	if !up(0, 1) {
		t.Fatal("FlapIface did not restore the interface")
	}

	// Indexed: only client 2's interface 0 goes down.
	evs = FlapClientIface(time.Second, time.Second, 2, 0)
	evs[0].Do(rt)
	if up(2, 0) || !up(0, 0) || !up(1, 0) {
		t.Fatal("FlapClientIface targeted the wrong device")
	}
	evs[1].Do(rt)
	if !up(2, 0) {
		t.Fatal("FlapClientIface did not restore the interface")
	}

	// Named: Star names its clients c0, c1, ...
	evs = FlapHostIface(time.Second, time.Second, "c1", 1)
	evs[0].Do(rt)
	if up(1, 1) || !up(0, 1) {
		t.Fatal("FlapHostIface targeted the wrong host")
	}
	evs[1].Do(rt)
	if !up(1, 1) {
		t.Fatal("FlapHostIface did not restore the interface")
	}

	// Out-of-range indices and unknown names are scenario bugs.
	for _, fn := range []func(){
		func() { FlapClientIface(0, 0, 9, 0)[0].Do(rt) },
		func() { FlapHostIface(0, 0, "nope", 0)[0].Do(rt) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad flap target did not panic")
				}
			}()
			fn()
		}()
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

// TestKernelCellIsKernelPM pins what the `kernel` pseudo-policy is: a run
// with Policy: KernelPolicy and the same run spelled with the KernelPM
// mechanism (in-kernel full mesh, nil policy) simulate the same bytes.
func TestKernelCellIsKernelPM(t *testing.T) {
	encode := func(edit func(*RunSpec)) string {
		buf, err := json.Marshal(Execute(fanOutSpec(edit), 7).Data())
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	byName := encode(func(rs *RunSpec) { rs.Policy = KernelPolicy })
	byPM := encode(func(rs *RunSpec) {
		rs.KernelPM = func() mptcp.PathManager { return pm.NewFullMesh() }
	})
	if byName != byPM {
		t.Fatalf("policy=kernel and KernelPM=fullmesh diverged:\n%s\nvs\n%s", byName, byPM)
	}
	if strings.Contains(byName, `"netlink_stacks"`) || !strings.Contains(byName, `"completed":4`) {
		t.Fatalf("a kernel cell built a Netlink control plane, or did not finish its four transfers:\n%s", byName)
	}
	userspace := encode(func(rs *RunSpec) { rs.Policy = "fullmesh" })
	if userspace == byName || !strings.Contains(userspace, `"netlink_stacks":4`) {
		t.Fatalf("the fullmesh controller cell is not a userspace run:\n%s", userspace)
	}
}

// TestScenarioEventsAllocConstant arms and fires a 10 000-event timeline of
// the repeating kinds (flaps, loss steps). Events are data and the run's
// state for all of them is one slab, so what arming allocates does not
// grow with the timeline beyond the engine's own event slabs (one per 256)
// and heap doublings: well under a hundred objects where a closure per
// constructor and per armed event made it 15 000.
func TestScenarioEventsAllocConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race instrumentation")
	}
	const n = 10000
	var evs []Event
	for i := 0; len(evs) < n; i++ {
		at := time.Duration(i) * time.Millisecond
		evs = append(evs, FlapClientIface(at, time.Millisecond, i%3, 1)...)
		evs = append(evs, SetLossAt(at, "bottleneck", 0.5), SetLossAt(at+time.Millisecond, "bottleneck", 0))
	}
	w := sim.NewWorld(1, 1)
	net := Star{
		Clients: 3, Ifaces: 2,
		Access:     netem.LinkConfig{RateBps: 10e6, Delay: time.Millisecond},
		Bottleneck: netem.LinkConfig{RateBps: 100e6, Delay: time.Millisecond},
	}.Build(w, 1).normalize()
	rt := &Run{Spec: &RunSpec{Events: evs}, Sim: w, Net: net}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.armEvents()
	w.RunFor(n * time.Millisecond)
	runtime.ReadMemStats(&after)
	if done := w.RuntimeStats().Globals; done != n {
		t.Fatalf("%d of %d events fired", done, n)
	}
	if got := after.Mallocs - before.Mallocs; got > 100 {
		t.Fatalf("arming and firing %d events allocated %d objects", n, got)
	}
	if avg := testing.AllocsPerRun(100, func() { evs[0] = SetLossAt(0, "bottleneck", 0.5) }); avg != 0 {
		t.Fatalf("SetLossAt allocates %.0f objects", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { evs = FlapClientIface(0, time.Second, 2, 1) }); avg != 1 {
		t.Fatalf("FlapClientIface allocates %.0f objects, want 1 (the two-event slice)", avg)
	}
}
