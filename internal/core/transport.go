// Package core implements the paper's contribution (§3): the separation of
// the Multipath TCP control plane from its data plane.
//
// Three pieces cooperate, exactly as in the paper's Figure 1:
//
//   - NetlinkPM, the kernel-side path manager (~1100 LoC of C in the
//     paper): it plugs into the in-kernel path-manager interface
//     (mptcp.PathManager) and re-exposes it as Netlink event messages,
//     while accepting command messages that create/remove subflows, change
//     backup priorities and retrieve TCP_INFO-like state;
//   - Library, the userspace PM library (~1900 LoC of C in the paper):
//     it hides all Netlink handling behind callbacks and command methods,
//     and is what subflow controllers (internal/controller) link against;
//   - Transport, the message channel between them. The SimTransport adds a
//     calibrated per-message latency (the cost of crossing the
//     kernel/userspace boundary, measured in Fig. 3 as ≈23 µs per
//     event+command round trip); the SocketTransport carries the very same
//     bytes over a real OS pipe or socket for cmd/smappd.
package core

import (
	"encoding/binary"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/nlmsg"
	"repro/internal/sim"
)

// Pipe is one direction of the Netlink channel: ordered, reliable,
// message-oriented (possibly several concatenated messages per send —
// netlink frames are self-delimiting).
type Pipe interface {
	// Send enqueues one marshalled Netlink frame toward the other side.
	// Ownership of b transfers to the pipe: the pipe recycles it into
	// nlmsg.Wire once the receiver returns, so the sender must not touch
	// b afterwards and the receiver must not retain it (or anything
	// parsed in place from it) past the callback.
	Send(b []byte)
	// SetReceiver installs the handler invoked for each delivered frame.
	SetReceiver(fn func(b []byte))
}

// Transport bundles the two directions of the kernel↔controller channel.
type Transport struct {
	ToUser   Pipe // kernel → controller (events, replies)
	ToKernel Pipe // controller → kernel (commands)
}

// SimPipe delivers messages on the virtual clock after a modelled latency,
// preserving order (later sends never overtake earlier ones).
type SimPipe struct {
	sim       sim.Clock
	latency   func() time.Duration
	recv      func([]byte)
	lastDue   sim.Time
	Delivered uint64

	// Frames in flight, oldest at head. Due times never decrease and the
	// clock's sequence numbers break ties in send order, so the pipe's
	// delivery events fire in send order and each one takes the head: the
	// event itself carries only the pipe, which lets it be a pooled one.
	inflight [][]byte
	head     int
}

// NewSimPipe creates a pipe whose per-message delay is drawn from latency.
func NewSimPipe(c sim.Clock, latency func() time.Duration) *SimPipe {
	return &SimPipe{sim: c, latency: latency}
}

// Send implements Pipe.
func (p *SimPipe) Send(b []byte) {
	due := p.sim.Now().Add(p.latency())
	if due < p.lastDue {
		due = p.lastDue // FIFO even with jittery latency draws
	}
	p.lastDue = due
	if p.head > 0 && len(p.inflight) == cap(p.inflight) {
		// Slide the live frames down instead of growing past the dead ones.
		n := copy(p.inflight, p.inflight[p.head:])
		clear(p.inflight[n:])
		p.inflight, p.head = p.inflight[:n], 0
	}
	p.inflight = append(p.inflight, b)
	p.sim.ScheduleArg(due, "netlink.deliver", deliverNext, p)
}

// deliverNext hands the pipe's oldest in-flight frame to the receiver.
func deliverNext(x any) {
	p := x.(*SimPipe)
	b := p.inflight[p.head]
	p.inflight[p.head] = nil
	p.head++
	if p.head == len(p.inflight) {
		p.inflight, p.head = p.inflight[:0], 0
	}
	p.Delivered++
	if p.recv != nil {
		p.recv(b)
	}
	nlmsg.Wire.On(sim.Lists(p.sim)).Put(b) // receiver returned; the frame is dead
}

// SetReceiver implements Pipe.
func (p *SimPipe) SetReceiver(fn func([]byte)) { p.recv = fn }

// LatencyModel builds a per-message latency generator: a fixed base cost
// plus exponentially distributed jitter, drawn from the simulation RNG.
// The defaults below are calibrated so one event+command round trip costs
// ≈23 µs on average (the Fig. 3 result) on an unloaded host.
func LatencyModel(rng *rand.Rand, base, jitterMean time.Duration) func() time.Duration {
	return func() time.Duration {
		j := time.Duration(rng.ExpFloat64() * float64(jitterMean))
		return base + j
	}
}

// Default Netlink crossing costs (one way).
const (
	// DefaultNetlinkBase is the fixed cost of one kernel↔user crossing.
	DefaultNetlinkBase = 8 * time.Microsecond
	// DefaultNetlinkJitter is the mean of the exponential jitter
	// (scheduler wakeup variance).
	DefaultNetlinkJitter = 3500 * time.Nanosecond
	// StressedNetlinkBase / StressedNetlinkJitter model the paper's
	// CPU-stressed client, where the measured penalty stays below 37 µs.
	StressedNetlinkBase   = 12 * time.Microsecond
	StressedNetlinkJitter = 6 * time.Microsecond
)

// NewSimTransport builds the standard simulated transport with the default
// (unloaded-host) latency model.
func NewSimTransport(c sim.Clock) *Transport {
	return newSimTransport(c, LatencyModel(c.Rand(), DefaultNetlinkBase, DefaultNetlinkJitter))
}

// NewStressedSimTransport models the CPU-stressed host of §4.5.
func NewStressedSimTransport(c sim.Clock) *Transport {
	return newSimTransport(c, LatencyModel(c.Rand(), StressedNetlinkBase, StressedNetlinkJitter))
}

// simTransport is a Transport together with its two pipes: one object.
type simTransport struct {
	Transport
	toUser, toKernel SimPipe
}

func newSimTransport(c sim.Clock, lat func() time.Duration) *Transport {
	t := &simTransport{toUser: SimPipe{sim: c, latency: lat}, toKernel: SimPipe{sim: c, latency: lat}}
	t.ToUser, t.ToKernel = &t.toUser, &t.toKernel
	return &t.Transport
}

// SocketPipe carries the same Netlink bytes over a real byte stream (an OS
// pipe, a Unix socket, a TCP connection). Messages are self-delimiting:
// the nlmsghdr length field frames them. Used by cmd/smappd to run the
// subflow controller across a genuine process boundary.
type SocketPipe struct {
	w  io.Writer
	mu sync.Mutex
}

// NewSocketPipe wraps a writer for sending.
func NewSocketPipe(w io.Writer) *SocketPipe { return &SocketPipe{w: w} }

// Send implements Pipe (synchronous write; callers serialise). The write
// finishes before return, so the frame is recycled immediately.
func (p *SocketPipe) Send(b []byte) {
	p.mu.Lock()
	p.w.Write(b)
	p.mu.Unlock()
	nlmsg.Wire.Put(b)
}

// SetReceiver is a no-op on SocketPipe: reading is pull-based via
// ReadMessages, because the owner decides which goroutine pumps.
func (p *SocketPipe) SetReceiver(fn func([]byte)) {}

// ReadMessages reads framed Netlink messages from r and hands each to fn
// until read error or EOF. It returns the terminating error (io.EOF on
// clean close). Frames come from and return to nlmsg.Wire, so fn must
// not retain the bytes (or in-place parses of them) past its return —
// the same ownership rule every Pipe receiver already lives under.
func ReadMessages(r io.Reader, fn func([]byte)) error {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		total := binary.LittleEndian.Uint32(hdr[:])
		if total < 20 || total > 1<<20 {
			return io.ErrUnexpectedEOF
		}
		buf := append(nlmsg.Wire.Get(), hdr[:]...)
		for len(buf) < int(total) {
			// The length is the peer's claim: grow by at most what has
			// arrived, so a lying header costs no more than its bytes.
			buf = slices.Grow(buf, min(int(total)-len(buf), len(buf)))
			end := min(cap(buf), int(total))
			if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
				nlmsg.Wire.Put(buf)
				if err == io.EOF {
					err = io.ErrUnexpectedEOF // inside a frame
				}
				return err
			}
			buf = buf[:end]
		}
		fn(buf)
		nlmsg.Wire.Put(buf)
	}
}
