package controller

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/seg"
)

// histLib is a recLib that also logs every timer FullMesh arms, with its
// delay, and keeps every create with its done callback for the test to
// ack: the error-specific retry delays and the ack handling are both part
// of the command log a history pins, and the creates still awaiting their
// ack are what FullMesh's bound counts.
type histLib struct {
	recLib
	creates []histCreate // every create, in send order
	acked   int          // how many of creates, from the first, are acked
	// outOfOrder is set once an ack answered a create that was not the
	// oldest unacked one, against core.Lib's ordering.
	outOfOrder bool
}

// histCreate is one create command as the library saw it.
type histCreate struct {
	key  meshKey
	done func(errno uint32)
}

func (l *histLib) CreateSubflow(token uint32, ft seg.FourTuple, backup bool, done func(uint32)) {
	l.recLib.CreateSubflow(token, ft, backup, done)
	l.creates = append(l.creates, histCreate{keyOf(ft), done})
}

func (l *histLib) After(d time.Duration, fn func()) func() {
	l.cmds = append(l.cmds, "timer "+d.String())
	return l.recLib.After(d, fn)
}

// ack answers the oldest create not yet acked, if any.
func (l *histLib) ack(errno uint32) {
	if l.acked == len(l.creates) {
		return
	}
	c := l.creates[l.acked]
	l.acked++
	if c.done != nil {
		c.done(errno)
	}
}

// ackAgain calls the last create's done once more, errno 0: an ack in
// order when that create is the only one unacked, a duplicate when none
// is, and otherwise an ack out of order.
func (l *histLib) ackAgain() {
	if len(l.creates) == 0 || l.creates[len(l.creates)-1].done == nil {
		return
	}
	switch l.acked {
	case len(l.creates) - 1:
		l.acked++
	case len(l.creates):
	default:
		l.outOfOrder = true
	}
	l.creates[len(l.creates)-1].done(0)
}

var (
	histServer2 = netip.MustParseAddr("10.9.1.1")
	histRemote  = netip.AddrPortFrom(detachServer, 80)
)

func histTuple(local netip.Addr, port uint16, remote netip.AddrPort) seg.FourTuple {
	return seg.FourTuple{SrcIP: local, DstIP: remote.Addr(), SrcPort: port, DstPort: remote.Port()}
}

// The events a history is written in.
func hCreated() func(*histLib) {
	return func(l *histLib) {
		l.deliver(nlmsg.Event{Kind: nlmsg.EvCreated, Tuple: histTuple(detachLocal, 40000, histRemote), HasTuple: true})
	}
}

func hEstablished() func(*histLib) {
	return func(l *histLib) {
		l.deliver(nlmsg.Event{Kind: nlmsg.EvEstablished, Tuple: histTuple(detachLocal, 40000, histRemote), HasTuple: true})
	}
}

func hClosed() func(*histLib) {
	return func(l *histLib) { l.deliver(nlmsg.Event{Kind: nlmsg.EvClosed}) }
}

func hSubUp(local netip.Addr, port uint16, remote netip.AddrPort) func(*histLib) {
	return func(l *histLib) {
		l.deliver(nlmsg.Event{Kind: nlmsg.EvSubEstablished, Tuple: histTuple(local, port, remote), HasTuple: true})
	}
}

func hSubClosed(local netip.Addr, port uint16, remote netip.AddrPort, errno uint32) func(*histLib) {
	return func(l *histLib) {
		l.deliver(nlmsg.Event{Kind: nlmsg.EvSubClosed, Tuple: histTuple(local, port, remote), HasTuple: true, Errno: errno})
	}
}

func hAddAddr(addr netip.Addr, port uint16) func(*histLib) {
	return func(l *histLib) { l.deliver(nlmsg.Event{Kind: nlmsg.EvAddAddr, AddrID: 1, Addr: addr, Port: port}) }
}

func hLocal(addr netip.Addr, up bool) func(*histLib) {
	kind := nlmsg.EvLocalAddrDown
	if up {
		kind = nlmsg.EvLocalAddrUp
	}
	return func(l *histLib) { l.deliver(nlmsg.Event{Kind: kind, Addr: addr}) }
}

func hFire() func(*histLib)            { return func(l *histLib) { l.fire() } }
func hAck(errno uint32) func(*histLib) { return func(l *histLib) { l.ack(errno) } }

// hStep is one step of a history: what happens, and the commands and
// timers FullMesh issues in answer, in order.
type hStep struct {
	name string
	do   func(*histLib)
	want []string
}

// fullMeshHistory is one scripted history: its steps, the timers left
// armed at its end, and the same history spelled in FuzzControllerHistory's
// alphabet, a seed of that fuzzer.
type fullMeshHistory struct {
	name  string
	steps []hStep
	armed int
	bytes []byte
}

// fullMeshHistories are the scripted histories FullMesh's command log is
// pinned over. The controller manages two local addresses, 10.0.0.1 (the
// initial subflow's) and 10.1.0.1.
func fullMeshHistories() []fullMeshHistory {
	r1 := histRemote
	r2 := netip.AddrPortFrom(histServer2, 80)
	l1, l2 := detachLocal, detachSecond
	return []fullMeshHistory{
		{
			name: "flap-and-retry",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoSubUp, 0), htuple(0, 0, 0),
				hop(hoSubUp, 0), htuple(1, 1, 5), hop(hoSubUp, 0), htuple(1, 0, 1),
				hop(hoLocalDown, 1),
				hop(hoSubClosed, 1), htuple(0, 0, 0), hop(hoSubClosed, 2), htuple(1, 0, 1),
				hop(hoSubClosed, 3), htuple(0, 0, 2),
				hop(hoFire, 0), hop(hoLocalUp, 1), hop(hoAddAddr, 0), hop(hoClosed, 0),
				hop(hoSubClosed, 1), htuple(0, 0, 3), hop(hoAddAddr, 2),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"sub_established l1", hSubUp(l1, 40000, r1), nil},
				// Up in the order r2, r1; dismissed in key order.
				{"sub_established l2 r2", hSubUp(l2, 40005, r2), nil},
				{"sub_established l2", hSubUp(l2, 40001, r1), nil},
				{"local_addr_down l2", hLocal(l2, false), []string{
					"remove 10.1.0.1:40001->10.9.0.1:80",
					"remove 10.1.0.1:40005->10.9.1.1:80",
				}},
				{"sub_closed l1 ECONNRESET", hSubClosed(l1, 40000, r1, 104), []string{"timer 1s"}},
				{"sub_closed l2 ETIMEDOUT", hSubClosed(l2, 40001, r1, 110), nil},
				{"sub_closed l1 ECONNREFUSED", hSubClosed(l1, 40002, r1, 111), nil},
				{"retry timers fire", hFire(), []string{
					"create 10.0.0.1:0->10.9.0.1:80",
				}},
				// The mesh skips a pair whose create awaits its ack.
				{"local_addr_up l2", hLocal(l2, true), []string{
					"create 10.1.0.1:0->10.9.0.1:80",
				}},
				{"add_addr", hAddAddr(histServer2, 0), []string{
					"create 10.0.0.1:0->10.9.1.1:80",
					"create 10.1.0.1:0->10.9.1.1:80",
				}},
				{"closed", hClosed(), nil},
				{"sub_closed after closed", hSubClosed(l1, 40003, r1, 104), nil},
				{"add_addr after closed", hAddAddr(histServer2, 8080), nil},
			},
		},
		{
			name: "errno-specific-delays",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoAck, 0), hop(hoAddAddr, 0),
				hop(hoAck, 0), hop(hoAck, 0), hop(hoAck, 0),
				hop(hoSubUp, 0), htuple(0, 1, 10), hop(hoSubUp, 0), htuple(1, 0, 11),
				hop(hoSubUp, 0), htuple(1, 1, 12),
				hop(hoSubClosed, 1), htuple(0, 0, 0), hop(hoSubClosed, 2), htuple(0, 1, 10),
				hop(hoSubClosed, 3), htuple(1, 0, 11), hop(hoSubClosed, 4), htuple(1, 1, 12),
				hop(hoSubUp, 0), htuple(0, 1, 13),
				hop(hoFire, 0), hop(hoLocalDown, 0), hop(hoClosed, 0),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"ack", hAck(0), nil},
				{"add_addr", hAddAddr(histServer2, 0), []string{
					"create 10.0.0.1:0->10.9.1.1:80",
					"create 10.1.0.1:0->10.9.0.1:80",
					"create 10.1.0.1:0->10.9.1.1:80",
				}},
				{"acks", func(l *histLib) { l.ack(0); l.ack(0); l.ack(0) }, nil},
				{"sub_established l1 r2", hSubUp(l1, 40010, r2), nil},
				{"sub_established l2 r1", hSubUp(l2, 40011, r1), nil},
				{"sub_established l2 r2", hSubUp(l2, 40012, r2), nil},
				{"sub_closed ECONNRESET", hSubClosed(l1, 40000, r1, 104), []string{"timer 1s"}},
				{"sub_closed ETIMEDOUT", hSubClosed(l1, 40010, r2, 110), []string{"timer 3s"}},
				{"sub_closed ECONNREFUSED", hSubClosed(l2, 40011, r1, 111), []string{"timer 5s"}},
				{"sub_closed other errno", hSubClosed(l2, 40012, r2, 32), []string{"timer 3s"}},
				{"sub_established l1 r2 before its retry", hSubUp(l1, 40013, r2), nil},
				{"retry timers fire", hFire(), []string{
					"create 10.0.0.1:0->10.9.0.1:80",
					"create 10.1.0.1:0->10.9.0.1:80",
					"create 10.1.0.1:0->10.9.1.1:80",
				}},
				{"local_addr_down l1", hLocal(l1, false), []string{
					"remove 10.0.0.1:40013->10.9.1.1:80",
				}},
				{"closed", hClosed(), nil},
			},
		},
		{
			name: "late-ack",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoSubUp, 0), htuple(1, 0, 1),
				hop(hoAddAddr, 0), hop(hoAck, 0), hop(hoAck, 1), hop(hoAck, 0), hop(hoAckAgain, 0),
				hop(hoLocalDown, 1), hop(hoFire, 0), hop(hoClosed, 0), hop(hoAck, 1),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				// The subflow is up before its create is acked.
				{"sub_established l2", hSubUp(l2, 40001, r1), nil},
				{"add_addr", hAddAddr(histServer2, 0), []string{
					"create 10.0.0.1:0->10.9.1.1:80",
					"create 10.1.0.1:0->10.9.1.1:80",
				}},
				{"late ack of the first create", hAck(0), nil},
				// A failed ack backs off the create it answers, the
				// second: (10.0.0.1, 10.9.1.1:80).
				{"failed ack of the second", hAck(101), []string{"timer 5s"}},
				{"ack of the third", hAck(0), nil},
				{"an ack no create waits for", func(l *histLib) { l.ackAgain() }, nil},
				{"local_addr_down l2", hLocal(l2, false), []string{
					"remove 10.1.0.1:40001->10.9.0.1:80",
				}},
				{"retry fires", hFire(), []string{"create 10.0.0.1:0->10.9.1.1:80"}},
				{"closed", hClosed(), nil},
				{"ack after closed fails", hAck(101), nil},
			},
		},
		{
			name: "failed-ack",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoAck, 1), hop(hoLocalUp, 1),
				hop(hoFire, 0), hop(hoAck, 2), hop(hoLocalDown, 1), hop(hoFire, 0),
				hop(hoLocalUp, 1), hop(hoAck, 0), hop(hoSubUp, 0), htuple(1, 0, 1), hop(hoClosed, 0),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"failed ack", hAck(101), []string{"timer 5s"}},
				// The mesh skips a pair whose retry is pending.
				{"local_addr_up l2 again", hLocal(l2, true), nil},
				{"retry fires", hFire(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"failed ack again", hAck(110), []string{"timer 5s"}},
				{"local_addr_down l2", hLocal(l2, false), nil},
				{"retry fires with l2 gone", hFire(), nil},
				{"local_addr_up l2", hLocal(l2, true), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"ack", hAck(0), nil},
				{"sub_established l2", hSubUp(l2, 40001, r1), nil},
				{"closed", hClosed(), nil},
			},
		},
		{
			name:  "repeated-established",
			bytes: []byte{hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoEstablished, 0)},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"established again", hEstablished(), nil},
			},
		},
		{
			name: "unacked-creates",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoLocalUp, 0), hop(hoLocalUp, 0),
				hop(hoAddAddr, 0), hop(hoAddAddr, 0),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				// Neither the local addresses coming up again nor the
				// same announcement twice re-issue a create still
				// awaiting its ack.
				{"local_addr_up l1", hLocal(l1, true), nil},
				{"local_addr_up l1 again", hLocal(l1, true), nil},
				{"add_addr", hAddAddr(histServer2, 0), []string{
					"create 10.0.0.1:0->10.9.1.1:80",
					"create 10.1.0.1:0->10.9.1.1:80",
				}},
				{"add_addr again", hAddAddr(histServer2, 0), nil},
			},
		},
		{
			name: "stale-ack",
			bytes: []byte{
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoClosed, 0),
				hop(hoCreated, 0), hop(hoEstablished, 0), hop(hoAck, 0), hop(hoLocalUp, 1),
			},
			steps: []hStep{
				{"created", hCreated(), nil},
				{"established", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				{"closed", hClosed(), nil},
				{"created again", hCreated(), nil},
				{"established again", hEstablished(), []string{"create 10.1.0.1:0->10.9.0.1:80"}},
				// The ack answers the first connection's create, so the
				// second's still awaits its ack.
				{"ack", hAck(0), nil},
				{"local_addr_up l2", hLocal(l2, true), nil},
			},
		},
	}
}

// TestFullMeshCommandLog pins FullMesh's commands over whole scripted
// histories, not only their outcome: every step names the commands and
// retry timers it must produce, in order. Each history's byte spelling
// must replay to the same log under FuzzControllerHistory's driver, so
// the fuzzer's seeds are these histories.
func TestFullMeshCommandLog(t *testing.T) {
	for _, h := range fullMeshHistories() {
		t.Run(h.name, func(t *testing.T) {
			l := &histLib{}
			NewFullMesh([]netip.Addr{detachSecond, detachLocal}).Attach(l)
			l.cmds = nil
			var want []string
			for _, st := range h.steps {
				st.do(l)
				if !slices.Equal(l.cmds, st.want) {
					t.Fatalf("step %q: commands %q, want %q", st.name, l.cmds, st.want)
				}
				want = append(want, st.want...)
				l.cmds = nil
			}
			if n := l.armed(); n != h.armed {
				t.Fatalf("%d timers armed at the end, want %d", n, h.armed)
			}
			got, broken := runHistory(historyControllers[0], h.bytes)
			if broken != "" {
				t.Fatal(broken)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the byte spelling replays to\n%q\nwant\n%q", got, want)
			}
		})
	}
}
