package scenario

import (
	"net/netip"
	"time"

	"repro/internal/app"
	"repro/internal/mptcp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// Workload is the application pattern a scenario runs over Multipath TCP,
// abstracting the app package's Source/Sink/BlockStreamer/ReqResp pairs
// behind one interface. Server installs the receive side (a Listen on the
// run's server endpoints); Client dials through the run's policy-bound
// stacks — which the engine built, one per client endpoint — and drives
// the send side. A workload instance belongs to exactly
// one run — spec factories must build a fresh one per RunSpec.
type Workload interface {
	Server(rt *Run)
	Client(rt *Run)
}

// Bulk transfers a fixed number of bytes from the client to the server as
// soon as the connection establishes (§4.2, §4.4).
type Bulk struct {
	Bytes         int
	CloseWhenDone bool
	// SinkExpect overrides the byte count the sink waits for (0 = Bytes).
	// Fig. 2a sets it effectively unbounded: the run observes a window of
	// an ongoing transfer rather than a completion.
	SinkExpect uint64

	Src  *app.Source
	Sink *app.Sink
}

// Server implements Workload.
func (w *Bulk) Server(rt *Run) {
	expect := w.SinkExpect
	if expect == 0 {
		expect = uint64(w.Bytes)
	}
	w.Sink = app.NewSink(rt.ServerClock(), expect, nil)
	rt.ServerEp.Listen(rt.Port(), func(c *mptcp.Connection) { c.SetCallbacks(w.Sink.Callbacks()) })
}

// Client implements Workload.
func (w *Bulk) Client(rt *Run) {
	w.Src = app.NewSource(rt.ClientClock(0), w.Bytes, w.CloseWhenDone)
	rt.DialDefault(w.Src.Callbacks())
}

// Done reports whether the sink saw its expected bytes (a Stop.Until
// condition).
func (w *Bulk) Done(*Run) bool { return w.Sink != nil && w.Sink.Done }

// BlockStream is the §4.3 streaming workload: one BlockSize block per
// Period for Blocks blocks, with per-block delivery times measured at the
// receiver.
type BlockStream struct {
	Period    time.Duration
	BlockSize int
	Blocks    int

	Streamer *app.BlockStreamer
	Sink     *app.BlockSink
}

// Server implements Workload.
func (w *BlockStream) Server(rt *Run) {
	w.Sink = app.NewBlockSink(rt.ServerClock(), w.BlockSize)
	rt.ServerEp.Listen(rt.Port(), func(c *mptcp.Connection) { c.SetCallbacks(w.Sink.Callbacks()) })
}

// Client implements Workload.
func (w *BlockStream) Client(rt *Run) {
	w.Streamer = app.NewBlockStreamer(rt.ClientClock(0), w.Period, w.BlockSize, w.Blocks)
	rt.DialDefault(w.Streamer.Callbacks())
}

// Delays returns the per-block delivery delays in seconds. Blocks never
// delivered within the horizon count as the horizon — they are the long
// tail the paper describes.
func (w *BlockStream) Delays(horizon time.Duration) *stats.Sample {
	delays := &stats.Sample{}
	for k, at := range w.Sink.CompletedAt {
		sent := w.Streamer.StartedAt.Add(time.Duration(k) * w.Period)
		delays.Add(time.Duration(at - sent).Seconds())
	}
	for k := len(w.Sink.CompletedAt); k < w.Blocks; k++ {
		sent := w.Streamer.StartedAt.Add(time.Duration(k) * w.Period)
		delays.Add((sim.Time(horizon) - sent).Seconds())
	}
	return delays
}

// OnOff is the §4.1 chat workload: one Size-byte message every Interval,
// Count times, over a single long-lived connection — long idle periods
// punctuated by bursts, the keepalive battle with NAT idle timeouts. The
// receiver records the arrival time of each message boundary.
type OnOff struct {
	Interval time.Duration
	Count    int
	Size     int

	Arrivals  []sim.Time
	SendTimes []sim.Time
}

// Server implements Workload.
func (w *OnOff) Server(rt *Run) {
	msgBytes := uint64(w.Size)
	sclk := rt.ServerClock()
	rt.ServerEp.Listen(rt.Port(), func(c *mptcp.Connection) {
		c.SetCallbacks(mptcp.ConnCallbacks{
			OnData: func(_ *mptcp.Connection, total uint64) {
				for uint64(len(w.Arrivals)+1)*msgBytes <= total {
					w.Arrivals = append(w.Arrivals, sclk.Now())
				}
			},
		})
	})
}

// Client implements Workload.
func (w *OnOff) Client(rt *Run) {
	conn := rt.DialDefault(mptcp.ConnCallbacks{})
	cclk := rt.ClientClock(0)
	for i := 0; i < w.Count; i++ {
		at := sim.Time(w.Interval) * sim.Time(i+1)
		cclk.Schedule(at, "chat.msg", func() {
			w.SendTimes = append(w.SendTimes, cclk.Now())
			conn.Write(w.Size)
		})
	}
}

// ReqResp is the §4.5 workload: Requests consecutive HTTP/1.0-style
// exchanges, one fresh connection per request (ReqSize request bytes up,
// RespSize response bytes down, then close). It drives the simulation
// itself — request k+1 only starts once request k finished — so runs
// using it leave Stop zero. Per request it samples the delay between the
// SYN carrying MP_CAPABLE and the SYN carrying MP_JOIN.
type ReqResp struct {
	Requests int
	ReqSize  uint64
	RespSize int

	Srv *app.ReqRespServer
	// Delays holds the CAPA→JOIN delay of every request, in milliseconds.
	Delays *stats.Sample
}

// Server implements Workload.
func (w *ReqResp) Server(rt *Run) {
	w.Srv = app.NewReqRespServer(w.ReqSize, w.RespSize)
	rt.ServerEp.Listen(rt.Port(), w.Srv.Accept)
}

// Client implements Workload.
func (w *ReqResp) Client(rt *Run) {
	w.Delays = &stats.Sample{}
	for i := 0; i < w.Requests; i++ {
		respDone := false
		conn := rt.DialDefault(mptcp.ConnCallbacks{
			OnEstablished: func(c *mptcp.Connection) { c.Write(int(w.ReqSize)) },
			OnData: func(c *mptcp.Connection, total uint64) {
				if total >= uint64(w.RespSize) {
					respDone = true
				}
			},
			OnPeerClose: func(c *mptcp.Connection) { c.Close() },
		})
		// Sample the CAPA→JOIN delay as soon as the join subflow exists
		// (the connection tears down right after the response).
		sampled := false
		for j := 0; j < 1000 && !sampled && !conn.Closed(); j++ {
			rt.Sim.RunFor(100 * time.Microsecond)
			if len(conn.Subflows()) >= 2 {
				if d, ok := CapaJoinDelay(conn); ok {
					w.Delays.Add(d.Seconds() * 1000) // ms
					sampled = true
				}
			}
		}
		// Run the request to completion (HTTP/1.0: one conn per GET).
		for !respDone && !conn.Closed() {
			rt.Sim.RunFor(10 * time.Millisecond)
		}
		conn.Abort()
		rt.Sim.RunFor(time.Millisecond)
	}
}

// CapaJoinDelay extracts the SYN(MP_CAPABLE)→SYN(MP_JOIN) delay from a
// connection's subflows.
func CapaJoinDelay(c *mptcp.Connection) (time.Duration, bool) {
	var initial, join *tcp.Subflow
	for _, sf := range c.Subflows() {
		if sf.Tuple() == c.InitialTuple() {
			initial = sf
		} else if join == nil || sf.SynSentAt() < join.SynSentAt() {
			join = sf
		}
	}
	if initial == nil || join == nil {
		return 0, false
	}
	return time.Duration(join.SynSentAt() - initial.SynSentAt()), true
}

// FanOut is the N-connections stress workload: every client endpoint of
// the topology dials a server once and streams Bytes.
type FanOut struct {
	Bytes int

	// CompletedAt[i] is when client i's transfer finished (-1 = never);
	// DialAt[i] is when it dialed.
	CompletedAt []sim.Time
	DialAt      []sim.Time
}

// Server implements Workload: one sink per accepted connection, on its
// own server's clock.
func (w *FanOut) Server(rt *Run) {
	w.CompletedAt = make([]sim.Time, len(rt.Net.Clients))
	for i := range w.CompletedAt {
		w.CompletedAt[i] = -1
	}
	rt.FanOutListen(func(i int, sclk sim.Clock, c *mptcp.Connection) {
		sink := app.NewSink(sclk, uint64(w.Bytes), nil)
		sink.OnComplete = func() { w.CompletedAt[i] = sclk.Now() }
		c.SetCallbacks(sink.Callbacks())
	})
}

// Client implements Workload.
func (w *FanOut) Client(rt *Run) {
	w.DialAt = rt.FanOutDial("scale.dial", func(cclk sim.Clock) mptcp.ConnCallbacks {
		return app.NewSource(cclk, w.Bytes, true).Callbacks()
	})
}

// FanOutListen is the server half of every fan-out workload: each server
// endpoint listens on the run's port (clients spread over them
// round-robin) and hands accept every connection with the index of the
// client that dialed it — matched by the initial subflow's address — and
// the accepting server's clock. State kept per client index and written
// on that clock never crosses shards.
func (rt *Run) FanOutListen(accept func(i int, sclk sim.Clock, c *mptcp.Connection)) {
	clientIdx := make(map[netip.Addr]int, len(rt.Net.Clients))
	for i, cl := range rt.Net.Clients {
		clientIdx[cl.Addrs[0]] = i
	}
	for si, ep := range rt.ServerEps {
		sclk := rt.Net.Servers[si].Clock()
		ep.Listen(rt.Port(), func(c *mptcp.Connection) {
			if i, ok := clientIdx[c.InitialTuple().DstIP]; ok {
				accept(i, sclk, c)
			}
		})
	}
}

// FanOutDial is the client half: client i dials once through its own
// stack, on its own clock (its shard), from its first address to server
// i mod len(Servers), at 1 ms + i·10 µs — a stagger that keeps the SYN
// burst concurrent but not pathologically phase-locked. callbacks builds
// one client's send side on its clock; the returned slice holds the dial
// times.
func (rt *Run) FanOutDial(name string, callbacks func(cclk sim.Clock) mptcp.ConnCallbacks) []sim.Time {
	at := make([]sim.Time, len(rt.Net.Clients))
	for i, cl := range rt.Net.Clients {
		cclk := cl.Host.Clock()
		cb := callbacks(cclk)
		at[i] = sim.Millisecond + sim.Time(i)*10*sim.Microsecond
		cclk.Schedule(at[i], name, func() { rt.dial(i, cb) })
	}
	return at
}

// Completed counts the clients whose transfer finished.
func (w *FanOut) Completed() int {
	n := 0
	for _, at := range w.CompletedAt {
		if at >= 0 {
			n++
		}
	}
	return n
}
