package mptcp

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/tcp"
)

// TestConnectionSizeClass pins the Connection, its spare list inside, to
// the 704-byte size class it had before the list: fleet builds thousands
// and heap_live_mb reads them all, so the list had to fit in padding the
// bools left.
func TestConnectionSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Connection{}); sz > 704 {
		t.Fatalf("Connection is %d bytes, over the 704-byte size class", sz)
	}
}

// TestScratchHoldsNoRetiredSubflow flaps the second interface under load,
// churn-style: down aborts the subflow on it, up opens a re-join, under
// every built-in scheduler. Whenever the interface comes back, and
// at the end, the connection's pick buffer and the scheduler's candidate
// buffer hold nothing but nil or live subflows across their whole backing
// arrays; a retired subflow lives on the spare list alone, dead and
// unlinked, and the re-joins reuse it.
func TestScratchHoldsNoRetiredSubflow(t *testing.T) {
	for _, sched := range []string{"lowest-rtt", "round-robin", "weighted-rtt", "redundant"} {
		p0, p1 := fastPaths()
		r := newRig(t, 12, p0, p1, Config{Scheduler: sched})
		r.net.Sim.Run()
		c := r.client
		second := r.net.ClientAddrs[1]
		check := func(when string) {
			live := map[*tcp.Subflow]bool{}
			for _, sf := range c.subflows {
				live[sf] = true
			}
			bufs := [][]*tcp.Subflow{c.pickBuf}
			if w, ok := c.sched.(*WeightedRTT); ok {
				bufs = append(bufs, w.buf)
			}
			for _, buf := range bufs {
				for _, sf := range buf[:cap(buf)] {
					if sf != nil && !live[sf] {
						t.Fatalf("%s, %s: scheduler scratch holds retired subflow %v", sched, when, sf)
					}
				}
			}
			for _, s := range c.spares {
				if s.sf != nil && (live[s.sf] || s.sf.State() != tcp.StateDead) {
					t.Fatalf("%s, %s: spare %v is linked or not dead", sched, when, s.sf)
				}
			}
		}
		opened := map[*tcp.Subflow]bool{}
		open := func() {
			sf, err := c.OpenSubflow(second, 0, r.net.ServerAddr, 80, false)
			if err != nil {
				t.Fatal(err)
			}
			opened[sf] = true
		}
		// Up 100 ms, long enough for the 15 ms path's join to carry data;
		// down 20 ms.
		const flaps, period = 20, 120 * time.Millisecond
		open()
		for i := 0; i < flaps; i++ {
			at := time.Duration(i) * period
			r.net.Sim.After(at+100*time.Millisecond, "down", func() {
				r.net.Client.SetIfaceUp(second, false)
				for _, sf := range c.Subflows() {
					if sf.Tuple().SrcIP == second {
						c.CloseSubflow(sf, true)
					}
				}
			})
			r.net.Sim.After(at+period, "up", func() {
				check("before a re-join")
				r.net.Client.SetIfaceUp(second, true)
				open()
			})
		}
		if err := c.Write(8 << 20); err != nil {
			t.Fatal(err)
		}
		r.net.Sim.RunFor(flaps*period + 10*time.Millisecond)
		check("at the end")
		if len(opened) >= flaps {
			t.Fatalf("%s: %d re-joins used %d distinct subflows: spares not reused", sched, flaps+1, len(opened))
		}
	}
}
