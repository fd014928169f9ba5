package mptcp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/tcp"
)

// TestEndpointTotalsSurviveReuse flaps the second interface of a lossy
// two-path connection under the redundant scheduler: every flap aborts the
// subflow on it, and the re-join reuses a dead one from the spare list,
// whose Reuse zeroes its counters. The client endpoint's totals must equal
// a count the test keeps itself: each subflow's Info().Stats read just
// before the flap that kills it, plus the live subflows at the end — both
// while the connection is open and after it has closed.
func TestEndpointTotalsSurviveReuse(t *testing.T) {
	p0, p1 := fastPaths()
	p0.Loss, p1.Loss = 0.02, 0.02
	r := newRig(t, 7, p0, p1, Config{Scheduler: "redundant"})
	r.net.Sim.Run()
	c := r.client
	second := r.net.ClientAddrs[1]

	var dead tcp.Stats // what the flapped subflows counted
	add := func(sum *tcp.Stats, s tcp.Stats) {
		sum.Retrans += s.Retrans
		sum.FastRetrans += s.FastRetrans
		sum.Timeouts += s.Timeouts
	}
	opened := map[*tcp.Subflow]bool{}
	open := func() {
		sf, err := c.OpenSubflow(second, 0, r.net.ServerAddr, 80, false)
		if err != nil {
			t.Fatal(err)
		}
		opened[sf] = true
	}
	const flaps, period = 8, 120 * time.Millisecond
	open()
	for i := 0; i < flaps; i++ {
		at := time.Duration(i) * period
		r.net.Sim.After(at+100*time.Millisecond, "down", func() {
			r.net.Client.SetIfaceUp(second, false)
			for _, sf := range c.Subflows() {
				if sf.Tuple().SrcIP == second {
					add(&dead, sf.Info().Stats)
					c.CloseSubflow(sf, true)
				}
			}
		})
		r.net.Sim.After(at+period, "up", func() {
			r.net.Client.SetIfaceUp(second, true)
			open()
		})
	}
	if err := c.Write(8 << 20); err != nil {
		t.Fatal(err)
	}
	r.net.Sim.RunFor(flaps*period + 10*time.Millisecond)
	if got := c.Stats().SubflowsClosed; got != flaps {
		t.Fatalf("%d subflows closed, want the %d the flaps killed", got, flaps)
	}
	if len(opened) >= flaps {
		t.Fatalf("%d re-joins used %d distinct subflows: spares not reused", flaps+1, len(opened))
	}
	if dead.Retrans == 0 {
		t.Fatal("the flapped subflows retransmitted nothing: the paths are not lossy enough")
	}

	check := func(when string) {
		t.Helper()
		want := dead
		for _, sf := range c.Subflows() {
			add(&want, sf.Info().Stats)
		}
		cs := c.Stats()
		got := r.cep.Totals()
		if got.Retrans != want.Retrans || got.FastRetrans != want.FastRetrans || got.Timeouts != want.Timeouts {
			t.Fatalf("%s: endpoint totals retrans/fast/rto = %d/%d/%d, subflows counted %d/%d/%d", when,
				got.Retrans, got.FastRetrans, got.Timeouts, want.Retrans, want.FastRetrans, want.Timeouts)
		}
		if got.Reinjected != cs.BytesReinjected || got.Duplicated != cs.BytesDuplicated {
			t.Fatalf("%s: endpoint totals reinjected/duplicated = %d/%d, connection counted %d/%d", when,
				got.Reinjected, got.Duplicated, cs.BytesReinjected, cs.BytesDuplicated)
		}
		var picks uint64
		for _, n := range got.Picks {
			picks += n
		}
		if picks != cs.ChunksPushed {
			t.Fatalf("%s: %d scheduler picks, %d chunks pushed", when, picks, cs.ChunksPushed)
		}
	}
	check("connection open")
	if cs := c.Stats(); cs.BytesReinjected == 0 || cs.BytesDuplicated == 0 {
		t.Fatalf("nothing reinjected or duplicated: %+v", cs)
	}
	live := c.Subflows()
	c.Abort()
	if !c.Closed() || len(c.Subflows()) != 0 {
		t.Fatal("abort left the connection open")
	}
	// The aborted subflows are dead now; the count keeps what they had.
	for _, sf := range live {
		add(&dead, sf.Info().Stats)
	}
	check("connection closed")
}

// TestEndpointTotalsTwoConns runs two redundant connections from one
// endpoint and closes one. Conns must list exactly the live one, and
// Totals must count each connection's bytes exactly once: the live one's
// from the connection, the closed one's from what it left behind.
func TestEndpointTotalsTwoConns(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 3, p0, p1, Config{Scheduler: "redundant"})
	r.net.Sim.Run()
	first := r.client
	second, err := r.cep.Connect(r.net.ClientAddrs[0], r.net.ServerAddr, 80, ConnCallbacks{})
	if err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	for _, c := range []*Connection{first, second} {
		if _, err := c.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Sim.Run()
	for _, c := range []*Connection{first, second} {
		if err := c.Write(256 << 10); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Sim.Run()
	for _, c := range []*Connection{first, second} {
		if c.Stats().BytesDuplicated == 0 {
			t.Fatal("a redundant connection duplicated nothing")
		}
	}
	check := func(when string, live ...*Connection) {
		t.Helper()
		want := first.Stats().BytesDuplicated + second.Stats().BytesDuplicated
		if got := r.cep.Totals().Duplicated; got != want {
			t.Fatalf("%s: totals count %d duplicated bytes, the connections %d", when, got, want)
		}
		conns := r.cep.Conns()
		if len(conns) != len(live) {
			t.Fatalf("%s: Conns lists %d connections, want %d", when, len(conns), len(live))
		}
		for _, c := range live {
			if !slices.Contains(conns, c) {
				t.Fatalf("%s: Conns misses a live connection", when)
			}
		}
	}
	check("both open", first, second)
	first.Close()
	r.net.Sim.Run()
	if !first.Closed() || second.Closed() {
		t.Fatal("closing the first connection did not close exactly it")
	}
	check("first closed", second)
}
