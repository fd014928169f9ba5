package mptcp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/seg"
	"repro/internal/tcp"
)

// stub builds a subflow pinned to the given scheduler-visible state, with
// a distinct port so failures identify the subflow.
func stub(port uint16, backup, established bool, srtt time.Duration, window int) *tcp.Subflow {
	return tcp.NewStubSubflow(tcp.StubState{
		Tuple:       seg.FourTuple{SrcPort: port},
		Backup:      backup,
		Established: established,
		SRTT:        srtt,
		Window:      window,
	})
}

// TestSchedulerBackupSemantics drives every registered scheduler through
// the RFC 6824 backup-priority scenarios documented in sched.go: a backup
// subflow may carry data only when no regular subflow is established —
// cwnd-limited-but-alive regular subflows block the backups.
func TestSchedulerBackupSemantics(t *testing.T) {
	const want = 1380
	regOpen := func() *tcp.Subflow { return stub(1, false, true, 10*time.Millisecond, 1<<20) }
	regStarved := func() *tcp.Subflow { return stub(2, false, true, 10*time.Millisecond, 0) }
	regDead := func() *tcp.Subflow { return stub(3, false, false, 10*time.Millisecond, 1<<20) }
	bakOpen := func() *tcp.Subflow { return stub(4, true, true, 5*time.Millisecond, 1<<20) }

	cases := []struct {
		name     string
		subflows func() []*tcp.Subflow
		// wantPort is the SrcPort of the subflow that must be picked;
		// 0 means Pick must return nil.
		wantPort uint16
	}{
		{
			name:     "regular open beats lower-RTT backup",
			subflows: func() []*tcp.Subflow { return []*tcp.Subflow{bakOpen(), regOpen()} },
			wantPort: 1,
		},
		{
			name:     "cwnd-limited regular still blocks backup",
			subflows: func() []*tcp.Subflow { return []*tcp.Subflow{regStarved(), bakOpen()} },
			wantPort: 0,
		},
		{
			name:     "backup usable once regulars are dead",
			subflows: func() []*tcp.Subflow { return []*tcp.Subflow{regDead(), bakOpen()} },
			wantPort: 4,
		},
		{
			name:     "only backups",
			subflows: func() []*tcp.Subflow { return []*tcp.Subflow{bakOpen()} },
			wantPort: 4,
		},
		{
			name:     "nothing usable",
			subflows: func() []*tcp.Subflow { return []*tcp.Subflow{regDead()} },
			wantPort: 0,
		},
	}

	for _, schedName := range Schedulers.Names() {
		factory, err := LookupScheduler(schedName)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(schedName+"/"+tc.name, func(t *testing.T) {
				// A fresh scheduler and rng per case: stateful schedulers
				// (round-robin, weighted-rtt) must not leak state across
				// cases, and randomized ones are probed repeatedly.
				for trial := 0; trial < 50; trial++ {
					s := factory(rand.New(rand.NewSource(int64(trial))))
					sf := s.Pick(tc.subflows(), want)
					var got uint16
					if sf != nil {
						got = sf.Tuple().SrcPort
					}
					if got != tc.wantPort {
						t.Fatalf("trial %d: picked port %d, want %d", trial, got, tc.wantPort)
					}
				}
			})
		}
	}
}

// TestRedundantPickAll checks the multi-pick contract: every usable
// subflow is returned lowest-RTT first, and backups never appear while a
// regular subflow is established.
func TestRedundantPickAll(t *testing.T) {
	slow := stub(1, false, true, 80*time.Millisecond, 1<<20)
	fast := stub(2, false, true, 10*time.Millisecond, 1<<20)
	starved := stub(3, false, true, time.Millisecond, 0)
	bak := stub(4, true, true, time.Millisecond, 1<<20)

	got := (Redundant{}).PickAll(nil, []*tcp.Subflow{slow, fast, starved, bak}, 1380)
	if len(got) != 2 || got[0] != fast || got[1] != slow {
		t.Fatalf("PickAll returned %d subflows in wrong order", len(got))
	}

	// With every regular subflow gone, all usable backups are returned.
	got = (Redundant{}).PickAll(nil, []*tcp.Subflow{stub(5, false, false, 0, 1<<20), bak}, 1380)
	if len(got) != 1 || got[0] != bak {
		t.Fatalf("backup fallback broken: got %d subflows", len(got))
	}
}

// TestWeightedRTTBias samples the weighted-rtt scheduler many times: the
// 10 ms subflow must attract roughly 10x the picks of the 100 ms one
// (weights are 1/SRTT), and the draw sequence must be deterministic for a
// fixed rng seed.
func TestWeightedRTTBias(t *testing.T) {
	fast := stub(1, false, true, 10*time.Millisecond, 1<<20)
	slow := stub(2, false, true, 100*time.Millisecond, 1<<20)
	subflows := []*tcp.Subflow{slow, fast}

	run := func(seed int64) (fastN int, seq []uint16) {
		w := NewWeightedRTT(rand.New(rand.NewSource(seed)))
		for i := 0; i < 2000; i++ {
			sf := w.Pick(subflows, 1380)
			if sf == nil {
				t.Fatal("no pick with open windows")
			}
			seq = append(seq, sf.Tuple().SrcPort)
			if sf == fast {
				fastN++
			}
		}
		return fastN, seq
	}
	fastN, seq1 := run(7)
	// Expected share 10/11 ≈ 0.909; allow generous sampling noise.
	if share := float64(fastN) / 2000; share < 0.85 || share > 0.97 {
		t.Fatalf("fast subflow share %.3f, want ≈0.91", share)
	}
	_, seq2 := run(7)
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("pick %d differs across identically-seeded runs", i)
		}
	}
}

// TestSchedulerRegistry covers this package's side of the table: the
// built-ins are present, the empty name resolves to the default, and
// unknown names fail.
func TestSchedulerRegistry(t *testing.T) {
	names := Schedulers.Names()
	for _, want := range []string{"lowest-rtt", "round-robin", "redundant", "weighted-rtt"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in %q missing from registry %v", want, names)
		}
	}
	f, err := LookupScheduler("")
	if err != nil {
		t.Fatal(err)
	}
	if s := f(rand.New(rand.NewSource(1))); s != (LowestRTT{}) {
		t.Fatalf("empty name resolved to %T, want LowestRTT", s)
	}
	if _, err := LookupScheduler("no-such-sched"); err == nil {
		t.Fatal("unknown scheduler did not error")
	}
}

// TestRedundantEndToEnd runs a real two-path transfer under the redundant
// scheduler: the stream must arrive exactly once and the second subflow
// must have carried duplicate copies.
func TestRedundantEndToEnd(t *testing.T) {
	p0, p1 := fastPaths()
	r := newRig(t, 91, p0, p1, Config{Scheduler: "redundant"})
	r.net.Sim.Run()
	if _, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false); err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	const total = 4 << 20
	r.client.Write(total)
	r.net.Sim.RunFor(time.Minute)
	if r.rcvTotal != total {
		t.Fatalf("received %d / %d", r.rcvTotal, total)
	}
	st := r.client.Stats()
	if st.BytesDuplicated == 0 {
		t.Fatal("redundant scheduler duplicated nothing across two open subflows")
	}
	if st.BytesScheduled != total {
		t.Fatalf("first-time scheduling accounted %d bytes, want %d", st.BytesScheduled, total)
	}
}

// TestWeightedRTTEndToEnd completes a transfer under weighted-rtt on
// asymmetric paths — the probabilistic policy must still drain the stream.
func TestWeightedRTTEndToEnd(t *testing.T) {
	r := newRig(t, 92,
		netem.LinkConfig{RateBps: 20e6, Delay: 5 * time.Millisecond},
		netem.LinkConfig{RateBps: 20e6, Delay: 40 * time.Millisecond},
		Config{Scheduler: "weighted-rtt"})
	r.net.Sim.Run()
	if _, err := r.client.OpenSubflow(r.net.ClientAddrs[1], 0, r.net.ServerAddr, 80, false); err != nil {
		t.Fatal(err)
	}
	r.net.Sim.Run()
	const total = 8 << 20
	r.client.Write(total)
	r.net.Sim.RunFor(time.Minute)
	if r.rcvTotal != total {
		t.Fatalf("received %d / %d", r.rcvTotal, total)
	}
	// Both subflows should have carried a share (weights keep the slow
	// path warm, unlike lowest-rtt).
	a := r.client.Subflows()[0].Info().Stats.BytesSent
	b := r.client.Subflows()[1].Info().Stats.BytesSent
	if a == 0 || b == 0 {
		t.Fatalf("weighted-rtt starved a path: %d / %d bytes", a, b)
	}
}
