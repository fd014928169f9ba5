package netem

// Referees. FlowHash as it was written over hash/fnv — five allocations a
// packet: the inline hash must return the same value for every tuple, or
// flows would move to other ECMP paths. And the link as it was with two
// events a packet — "link.serialized", whose callback only frees a queue
// slot, and a pooled "link.deliver" per packet: the one-event link must
// deliver the same packets at the same instants in the same order, drop
// the same ones and draw the same random numbers.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/seg"
	"repro/internal/sim"
)

func refFlowHash(ft seg.FourTuple, seed uint64) uint64 {
	a := addrPort{ft.SrcIP, ft.SrcPort}
	b := addrPort{ft.DstIP, ft.DstPort}
	if b.less(a) {
		a, b = b, a
	}
	h := fnv.New64a()
	var sb [8]byte
	for i := 0; i < 8; i++ {
		sb[i] = byte(seed >> (8 * i))
	}
	h.Write(sb[:])
	for _, ap := range []addrPort{a, b} {
		h.Write(ap.ip.AsSlice())
		h.Write([]byte{byte(ap.port >> 8), byte(ap.port)})
	}
	return h.Sum64()
}

func TestFlowHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v4 := func() netip.Addr {
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	v6 := func() netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	port := func() uint16 { return uint16(rng.Intn(1 << 16)) }
	check := func(what string, ft seg.FourTuple) {
		t.Helper()
		seed := rng.Uint64()
		for _, tu := range []seg.FourTuple{ft, ft.Reverse()} {
			if got, want := FlowHash(tu, seed), refFlowHash(tu, seed); got != want {
				t.Fatalf("%s %v seed %#x: FlowHash = %#x, hash/fnv gives %#x", what, tu, seed, got, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		a4, a6 := v4(), v6()
		check("IPv4", seg.FourTuple{SrcIP: a4, DstIP: v4(), SrcPort: port(), DstPort: port()})
		check("IPv6", seg.FourTuple{SrcIP: a6, DstIP: v6(), SrcPort: port(), DstPort: port()})
		check("zero ports", seg.FourTuple{SrcIP: a4, DstIP: v4()})
		check("same address", seg.FourTuple{SrcIP: a4, DstIP: a4, SrcPort: port(), DstPort: port()})
		check("4-in-6", seg.FourTuple{SrcIP: netip.AddrFrom16(a4.As16()), DstIP: a6, SrcPort: port(), DstPort: port()})
		check("mixed families", seg.FourTuple{SrcIP: a4, DstIP: a6, SrcPort: port(), DstPort: port()})
	}
	check("zero tuple", seg.FourTuple{})
	check("zero address", seg.FourTuple{DstIP: v4(), SrcPort: 1, DstPort: 2})
}

// refLink is Link before serialisation became analytic: every accepted
// packet schedules the end of its serialisation and, unless lost, its own
// delivery. Tracing left out.
type refLink struct {
	clock, dstClock sim.Clock
	dst             Node
	rate            float64
	delay           time.Duration
	loss            float64
	qcap            int
	up              bool
	busyUntil       sim.Time
	queued          int
	serFn, dlvFn    func(any)
	Stats           LinkStats
}

func newRefLink(c sim.Clock, name string, dst Node, cfg LinkConfig) *refLink {
	l := &refLink{
		clock: c.Derive("link:" + name), dstClock: dst.Clock(), dst: dst,
		rate: cfg.RateBps, delay: cfg.Delay, loss: cfg.Loss, qcap: cfg.QueueCap, up: true,
	}
	if w := sim.WorldOf(l.clock); w != nil {
		w.Crossing(name, l.clock, l.dstClock, cfg.Delay)
	}
	l.serFn = func(any) { l.queued-- }
	l.dlvFn = func(a any) {
		pkt := a.(*Packet)
		if !l.up {
			l.Stats.DropCut++
			pkt.Release()
			return
		}
		l.Stats.Sent++
		l.Stats.Bytes += uint64(pkt.Size)
		l.dst.Input(pkt)
	}
	return l
}

func (l *refLink) SetUp(up bool) { l.up = up }

func (l *refLink) Send(pkt *Packet) {
	if !l.up {
		l.Stats.DropDown++
		pkt.Release()
		return
	}
	if l.queued >= l.qcap {
		l.Stats.DropQueue++
		pkt.Release()
		return
	}
	lost := l.loss > 0 && l.clock.Rand().Float64() < l.loss
	now := l.clock.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	var ser time.Duration
	if l.rate > 0 {
		ser = time.Duration(float64(pkt.Size*8) / l.rate * float64(time.Second))
	}
	l.busyUntil = start.Add(ser)
	l.queued++
	deliverAt := l.busyUntil.Add(l.delay)
	l.clock.ScheduleArg(l.busyUntil, "link.serialized", l.serFn, nil)
	if lost {
		l.Stats.LostRand++
		pkt.Release()
		return
	}
	l.clock.SendTo(l.dstClock, deliverAt, "link.deliver", l.dlvFn, pkt)
}

// wire is what the differential harness needs of either link.
type wire interface {
	Send(*Packet)
	SetUp(bool)
	busy() sim.Time // when the serialisation accepted last ends
}

func (l *Link) busy() sim.Time    { return l.busyUntil }
func (l *refLink) busy() sim.Time { return l.busyUntil }

// recorder is the far end: it logs what arrives and when, on its own loop.
type recorder struct {
	clock sim.Clock
	log   []string
}

func (r *recorder) Input(p *Packet) {
	r.log = append(r.log, fmt.Sprintf("%d #%d", r.clock.Now(), p.Seg.Seq))
	p.Release()
}
func (r *recorder) Name() string     { return "rx" }
func (r *recorder) Clock() sim.Clock { return r.clock }

// numbered builds packet id with the given wire size.
func numbered(id, size int) *Packet {
	p := mkpkt(ipA, ipB, 0)
	p.Seg.Seq, p.Size = uint32(id), size
	return p
}

// linkCut takes the link down or brings it up at a time.
type linkCut struct {
	at sim.Time
	up bool
}

// linkCuts is a World timeline of link cuts, in time order.
type linkCuts struct {
	link wire
	cuts []linkCut
}

func (l linkCuts) Len() int          { return len(l.cuts) }
func (l linkCuts) At(k int) sim.Time { return l.cuts[k].at }
func (l linkCuts) Name(int) string   { return "cut" }
func (l linkCuts) Fire(k int)        { l.link.SetUp(l.cuts[k].up) }

// linkRun is one side of the differential: a fabric, two sending entities
// around one link — early is created before the link, so its ordinal is
// below the link's under a World, late after — and the recorder behind it.
type linkRun struct {
	runner      sim.Runner
	early, late sim.Clock
	link        wire
	stats       *LinkStats
	rng         func() int64 // next draw of the link's loss stream
	rx          *recorder
}

func newLinkRun(ref bool, shards int, seed int64, cfg LinkConfig) *linkRun {
	r := &linkRun{}
	var f sim.Fabric
	if shards == 0 {
		s := sim.New(seed)
		r.runner, f = s, s
	} else {
		w := sim.NewWorld(seed, shards)
		r.runner, f = w, w
	}
	r.early = f.HostClock(0, "early")
	r.rx = &recorder{clock: f.HostClock(1, "rx")}
	if ref {
		l := newRefLink(r.early, "l", r.rx, cfg)
		r.link, r.stats, r.rng = l, &l.Stats, l.clock.Rand().Int63
	} else {
		l := NewLink(r.early, "l", r.rx, cfg)
		r.link, r.stats, r.rng = l, &l.Stats, l.clock.Rand().Int63
	}
	r.late = f.HostClock(0, "late")
	return r
}

// TestLinkMatchesTwoEventReference drives the one-event link and the
// two-event referee with one random schedule each on a bare Simulator and
// on a World at one and two shards: sends from events of a lower and of a
// higher ordinal than the link's and from outside any event, queue
// capacities from 1 to 100, loss, and the link cut and restored in flight
// (by the World's timeline, or by plain events on the bare Simulator).
// Each sender's events schedule the next one as they run, before or after
// they send, so sender and link draw their sequence numbers interleaved;
// and two packets in three are followed by one aimed at the very
// nanosecond their serialisation ends — the tie that decides whether a
// full queue of one has room.
func TestLinkMatchesTwoEventReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, shards := range []int{0, 1, 2} {
			rng := rand.New(rand.NewSource(seed))
			cfg := LinkConfig{
				RateBps:  []float64{8e6, 3e6, 1e9}[rng.Intn(3)],
				Delay:    time.Duration(1+rng.Intn(3)) * time.Millisecond,
				QueueCap: []int{1, 1, 2, 3, 17, 100}[rng.Intn(6)],
				Loss:     []float64{0, 0, 0.2}[rng.Intn(3)],
			}
			type send struct {
				at       sim.Time
				id, size int
			}
			var chains [2][]send // by sender: early, late
			var outside []send
			var cuts []linkCut
			at := sim.Time(0)
			for id := 0; id < 400; id++ {
				// Bursts at one instant, gaps of about a packet, and
				// now and then an idle stretch that drains the queue.
				switch rng.Intn(8) {
				case 0, 1, 2:
				case 3:
					at += sim.Time(rng.Intn(20000)) * sim.Microsecond
				default:
					at += sim.Time(rng.Intn(1500)) * sim.Microsecond
				}
				if rng.Intn(100) == 0 { // down, then up, then down...
					cuts = append(cuts, linkCut{at + sim.Time(rng.Intn(3000))*sim.Microsecond, len(cuts)%2 == 1})
				}
				sd := send{at, id, 40 + rng.Intn(1461)}
				if id%7 == 0 {
					outside = append(outside, sd)
				} else {
					c := rng.Intn(2)
					chains[c] = append(chains[c], sd)
				}
			}
			sort.SliceStable(cuts, func(i, j int) bool { return cuts[i].at < cuts[j].at })
			legs := []sim.Time{at / 3, at / 3, 2 * at / 3, at + sim.Second, at + 2*sim.Second}

			run := func(ref bool) (log []string, st LinkStats, draw int64, events uint64) {
				r := newLinkRun(ref, shards, seed, cfg)
				clocks := [2]sim.Clock{r.early, r.late}
				outside := outside
				var step func(c, k int)
				step = func(c, k int) {
					sd := chains[c][k]
					clocks[c].Schedule(sd.at, "send", func() {
						if k+1 < len(chains[c]) && sd.id%2 == 0 {
							step(c, k+1)
						}
						// A tie scheduled before the send it ties with (at the
						// end of serialisation if this packet is accepted)
						// draws its sequence number first, one scheduled after
						// draws it second.
						tie := func(at sim.Time) {
							clocks[sd.id/3%2].Schedule(at, "tie", func() { r.link.Send(numbered(1000+sd.id, sd.size)) })
						}
						if sd.id%3 == 1 {
							ser := time.Duration(float64(sd.size*8) / cfg.RateBps * float64(time.Second))
							tie(max(r.link.busy(), clocks[c].Now()).Add(ser))
						}
						r.link.Send(numbered(sd.id, sd.size))
						if at := r.link.busy(); sd.id%3 == 0 && at >= clocks[c].Now() {
							tie(at)
						}
						if k+1 < len(chains[c]) && sd.id%2 == 1 {
							step(c, k+1)
						}
					})
				}
				for c := range chains {
					if len(chains[c]) > 0 {
						step(c, 0)
					}
				}
				plan := linkCuts{link: r.link, cuts: cuts}
				if w, ok := r.runner.(*sim.World); ok {
					w.Walk(plan)
				} else {
					for k := range cuts {
						r.runner.(*sim.Simulator).ScheduleArg(cuts[k].at, "cut", func(any) { plan.Fire(k) }, nil)
					}
				}
				for i, leg := range legs {
					r.runner.RunUntil(leg) // legs[1] == legs[0]: a run that executes nothing
					if i == 1 {
						continue
					}
					if tie := r.link.busy(); tie > leg { // stop exactly where a serialisation ends
						r.runner.RunUntil(tie)
					}
					for len(outside) > 0 && outside[0].at <= leg { // from outside any event
						r.link.Send(numbered(outside[0].id, outside[0].size))
						outside = outside[1:]
					}
				}
				return r.rx.log, *r.stats, r.rng(), r.runner.Processed()
			}
			log, st, draw, events := run(false)
			refLog, refSt, refDraw, refEvents := run(true)
			name := fmt.Sprintf("seed %d shards %d %+v", seed, shards, cfg)
			if st != refSt {
				t.Fatalf("%s: stats %+v, two-event link %+v", name, st, refSt)
			}
			if !reflect.DeepEqual(log, refLog) {
				for i := range refLog {
					if i >= len(log) || log[i] != refLog[i] {
						t.Fatalf("%s: delivery %d is %q, two-event link %q", name, i, append(log, "<none>")[i], refLog[i])
					}
				}
				t.Fatalf("%s: %d deliveries, two-event link %d", name, len(log), len(refLog))
			}
			if draw != refDraw {
				t.Fatalf("%s: the loss stream is at a different draw", name)
			}
			// The referee ran one more event per packet that entered the queue.
			if queued := st.Sent + st.DropCut + st.LostRand; refEvents-events != queued {
				t.Fatalf("%s: %d events, two-event link %d, for %d packets queued", name, events, refEvents, queued)
			}
		}
	}
}

// TestLinkTieAtQueueBoundary builds the tie by hand: a full queue of one,
// and a second packet sent at the very nanosecond the first one's
// serialisation ends. Whether the slot is free is decided by the keys — the
// sender's ordinal against the link's — exactly as when the end of
// serialisation was an event of the link.
func TestLinkTieAtQueueBoundary(t *testing.T) {
	cfg := LinkConfig{RateBps: 8e6, Delay: time.Millisecond, QueueCap: 1}
	for _, late := range []bool{false, true} {
		var drops [2]uint64
		for i, ref := range []bool{false, true} {
			r := newLinkRun(ref, 1, 1, cfg)
			c := r.early
			if late {
				c = r.late
			}
			c.Schedule(0, "first", func() { r.link.Send(numbered(0, 1000)) }) // on the wire until 1 ms
			c.Schedule(sim.Millisecond-1, "early", func() { r.link.Send(numbered(1, 1000)) })
			c.Schedule(sim.Millisecond, "tie", func() { r.link.Send(numbered(2, 1000)) })
			r.runner.RunUntil(sim.Second)
			drops[i] = r.stats.DropQueue
		}
		// A nanosecond early the queue is full for anyone. At the tie an
		// entity created before the link runs before the link would have
		// freed the slot; one created after it runs after.
		want := uint64(2)
		if late {
			want = 1
		}
		if drops[0] != want || drops[1] != want {
			t.Fatalf("late sender %v: %d queue drops, two-event link %d, want %d", late, drops[0], drops[1], want)
		}
	}
}
