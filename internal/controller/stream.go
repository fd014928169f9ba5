package controller

import (
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
)

// Stream is the §4.3 controller: it supports an application that writes
// one fixed-size block per period and expects each block delivered within
// the period.
//
// Policy (verbatim from the paper): 500 ms after each block start it
// extracts snd_una from the kernel and measures transfer progress; if
// fewer than half the block's bytes have been acknowledged it considers
// the current subflow underperforming and opens a subflow on the other
// interface. Independently, any subflow whose RTO exceeds RTOLimit is
// closed immediately — this is what removes the long-tail blocking the
// default stack suffers (Fig. 2b).
type Stream struct {
	// Period is the block cadence (1 s in the paper).
	Period time.Duration
	// BlockSize is the bytes per block (64 KB in the paper).
	BlockSize uint64
	// CheckAfter is the intra-block probe point (500 ms in the paper).
	CheckAfter time.Duration
	// MinProgress is the snd_una progress required at the probe point
	// (32 KB in the paper).
	MinProgress uint64
	// RTOLimit closes any subflow whose backed-off RTO exceeds it (1 s).
	RTOLimit time.Duration
	// SecondAddr is the local address of the other interface.
	SecondAddr netip.Addr

	lib core.Lib
	// The connection being managed, from its created event to its closed.
	open      bool
	token     uint32
	remote    netip.AddrPort
	startAt   time.Duration // establishment time on the controller clock
	opened    bool          // second subflow requested
	nSubflows int
	stopProbe func()
	Stats     StreamStats
}

// StreamStats counts controller activity.
type StreamStats struct {
	Probes         uint64
	SecondOpened   uint64
	SubflowsKilled uint64
}

// NewStream builds the controller with the paper's parameters for a 64 KB
// block per second.
func NewStream(secondAddr netip.Addr) *Stream {
	return &Stream{
		Period:      time.Second,
		BlockSize:   64 << 10,
		CheckAfter:  500 * time.Millisecond,
		MinProgress: 32 << 10,
		RTOLimit:    time.Second,
		SecondAddr:  secondAddr,
	}
}

// Name implements Controller.
func (s *Stream) Name() string { return "smart-stream" }

// Attach implements Controller.
func (s *Stream) Attach(lib core.Lib) {
	s.lib = lib
	h := s.handle
	lib.Register(core.Callbacks{
		Created: h, Established: h, Closed: h, SubEstablished: h, SubClosed: h, Timeout: h,
	}, nil)
}

// Detach implements Controller: stop the armed probe and end the
// connection. An in-flight GetInfo reply sees it ended and does nothing.
func (s *Stream) Detach() { s.onClosed() }

// handle is the one event handler Attach registers.
func (s *Stream) handle(ev *nlmsg.Event) {
	switch ev.Kind {
	case nlmsg.EvCreated:
		s.onClosed() // a connection restarted without its closed event
		s.open, s.token = true, ev.Token
		s.remote = netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)
		s.opened, s.nSubflows = false, 0
	case nlmsg.EvEstablished:
		if s.open {
			s.startAt = s.lib.Clock().Now()
			s.scheduleProbe(0)
		}
	case nlmsg.EvClosed:
		s.onClosed()
	case nlmsg.EvSubEstablished:
		if s.open {
			s.nSubflows++
		}
	case nlmsg.EvSubClosed:
		if s.open {
			s.nSubflows--
		}
	case nlmsg.EvTimeout:
		s.onTimeout(ev)
	}
}

func (s *Stream) onClosed() {
	s.open = false
	if s.stopProbe != nil {
		s.stopProbe()
		s.stopProbe = nil
	}
}

// scheduleProbe arms the probe for block k at startAt + k*Period +
// CheckAfter.
func (s *Stream) scheduleProbe(block uint64) {
	due := s.startAt + time.Duration(block)*s.Period + s.CheckAfter
	delay := due - s.lib.Clock().Now()
	if delay < 0 {
		delay = 0
	}
	s.stopProbe = s.lib.After(delay, func() { s.probe(block) })
}

// probe implements the mid-block check: expected base is block*BlockSize
// because the application writes one block per period.
func (s *Stream) probe(block uint64) {
	if !s.open {
		return
	}
	s.Stats.Probes++
	s.lib.GetInfo(s.token, func(info *nlmsg.ConnInfo) {
		if info == nil || !s.open {
			return
		}
		base := block * s.BlockSize
		// The app writes one block per period; progress can only be
		// expected for bytes it actually wrote. If the stream paused or
		// ended there is nothing to monitor this period.
		var written uint64
		if info.AppNxt > base {
			written = info.AppNxt - base
		}
		required := s.MinProgress
		if written < required {
			required = written
		}
		var progress uint64
		if info.SndUna > base {
			progress = info.SndUna - base
		}
		if written > 0 && progress < required && !s.opened {
			s.openSecond()
		}
		s.scheduleProbe(block + 1)
	})
}

// onTimeout closes any subflow whose RTO grew past the limit, provided the
// connection keeps at least one other subflow (or we have already asked
// for one).
func (s *Stream) onTimeout(ev *nlmsg.Event) {
	if !s.open || ev.RTO <= s.RTOLimit {
		return
	}
	if s.nSubflows <= 1 && !s.opened {
		// Killing the only subflow would strand the connection; open the
		// second one instead — the kill will happen on the next timeout.
		s.openSecond()
		return
	}
	if s.nSubflows > 1 {
		s.Stats.SubflowsKilled++
		s.lib.RemoveSubflow(ev.Token, ev.Tuple, nil)
	}
}

// openSecond asks, once per connection, for a subflow over the other
// interface.
func (s *Stream) openSecond() {
	s.opened = true
	s.Stats.SecondOpened++
	s.lib.CreateSubflow(s.token, seg.FourTuple{
		SrcIP: s.SecondAddr, SrcPort: 0,
		DstIP: s.remote.Addr(), DstPort: s.remote.Port(),
	}, false, nil)
}
