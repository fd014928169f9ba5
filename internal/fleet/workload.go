package fleet

import (
	"time"

	"repro/internal/app"
	"repro/internal/mptcp"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Load is the fleet workload: every device uploads Bytes to the servers
// (round-robin) while its mobility timeline flaps its radios underneath.
// It is the scale fan-out (one dial per device through the stack the
// engine built for it) with a paced source, and on top it keeps the
// per-device accounting the fleet report needs WITHOUT tracing: bytes delivered, completion time, and the worst data
// stall (maximum inter-arrival gap seen at the server), which is the
// application-visible cost of a handover.
//
// All per-device slots are per-element slice writes: device i's sink
// runs on the shard of the server it dialed, and no two devices share a
// slot, so multi-shard runs stay race-free (the fan-out precedent).
type Load struct {
	Bytes int
	// Chunks > 1 paces the upload: Bytes splits into Chunks blocks, one
	// block per Period, so the transfer spans the mobility window
	// instead of finishing before the first handover. Chunks <= 1 sends
	// everything at establishment (the fan-out behaviour).
	Chunks int
	Period time.Duration

	// Per-device outcome, indexed by ordinal. CompletedAt is -1 when the
	// upload never finished; LastData is the final data arrival (-1 when
	// no data arrived at all); MaxGap is the worst gap between
	// consecutive data arrivals after the first.
	DialAt      []sim.Time
	CompletedAt []sim.Time
	LastData    []sim.Time
	MaxGap      []sim.Time
	Recv        []uint64
}

// chunk returns the per-block size and the total the sinks wait for
// (the block size rounds up, so paced totals can exceed Bytes slightly).
func (w *Load) chunk() (size, total int) {
	if w.Chunks <= 1 {
		return w.Bytes, w.Bytes
	}
	size = (w.Bytes + w.Chunks - 1) / w.Chunks
	return size, size * w.Chunks
}

// Server implements scenario.Workload: each accepted connection's sink
// records its device's stall accounting on the accepting server's clock.
func (w *Load) Server(rt *scenario.Run) {
	n := len(rt.Net.Clients)
	w.CompletedAt = make([]sim.Time, n)
	w.LastData = make([]sim.Time, n)
	w.MaxGap = make([]sim.Time, n)
	w.Recv = make([]uint64, n)
	for i := 0; i < n; i++ {
		w.CompletedAt[i] = -1
		w.LastData[i] = -1
	}
	rt.FanOutListen(func(idx int, sclk sim.Clock, c *mptcp.Connection) {
		_, total := w.chunk()
		sink := app.NewSink(sclk, uint64(total), nil)
		sink.OnComplete = func() { w.CompletedAt[idx] = sclk.Now() }
		inner := sink.Callbacks()
		cb := inner
		cb.OnData = func(c *mptcp.Connection, total uint64) {
			now := sclk.Now()
			if last := w.LastData[idx]; last >= 0 {
				if gap := now - last; gap > w.MaxGap[idx] {
					w.MaxGap[idx] = gap
				}
			}
			w.LastData[idx] = now
			w.Recv[idx] = total
			if inner.OnData != nil {
				inner.OnData(c, total)
			}
		}
		c.SetCallbacks(cb)
	})
}

// Client implements scenario.Workload: each device dials from its WiFi
// address with a paced (or, for Chunks <= 1, one-shot) source.
func (w *Load) Client(rt *scenario.Run) {
	size, _ := w.chunk()
	w.DialAt = rt.FanOutDial("fleet.dial", func(cclk sim.Clock) mptcp.ConnCallbacks {
		if w.Chunks > 1 {
			return app.NewBlockStreamer(cclk, w.Period, size, w.Chunks).Callbacks()
		}
		return app.NewSource(cclk, size, true).Callbacks()
	})
}

// Completed counts devices whose upload finished.
func (w *Load) Completed() int {
	n := 0
	for _, at := range w.CompletedAt {
		if at >= 0 {
			n++
		}
	}
	return n
}

// Done is the Stop.Until condition: every device finished.
func (w *Load) Done(*scenario.Run) bool {
	return len(w.CompletedAt) > 0 && w.Completed() == len(w.CompletedAt)
}
