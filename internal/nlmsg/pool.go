package nlmsg

import "repro/internal/freelist"

// wirePool recycles wire buffers for the append-style codec. A buffer's
// lifecycle is: Get → AppendMarshal one or more messages into it → hand
// it to a transport Send (which owns it from that point) → the transport
// calls Put once the receive callback has returned. Between Get and Put
// the holder has exclusive use; after Put the bytes may be scribbled by
// the next Get, so nothing parsed in place from the buffer (Message attr
// Data views) may outlive it.
//
// It is a freelist.List of buffers (see that package for why not a
// sync.Pool) that keeps only buffers no larger than a fresh one. The type
// is unexported because a usable pool needs newPool's New and Max; Wire
// is the one instance.
type wirePool struct {
	l freelist.List[[]byte]
}

const (
	// wireBufCap sizes fresh buffers: roomy enough for a coalesced
	// multi-event frame (an event is ≤ ~80 bytes on the wire) so steady
	// state never grows a pooled buffer.
	wireBufCap = 2048
	// poolMax caps each free-list stripe (one per P) at 4 k buffers of at
	// most wireBufCap bytes, an 8 MB ceiling per P, above the ~1 k a
	// 1000-stack fleet holds at once.
	poolMax = 1 << 12
)

func newPool() *wirePool {
	return &wirePool{l: freelist.List[[]byte]{
		New: func() []byte { return make([]byte, 0, wireBufCap) },
		Max: poolMax,
	}}
}

// Get returns an empty buffer with capacity for a typical frame. The
// caller owns it until it is handed to a transport or returned with Put.
func (p *wirePool) Get() []byte {
	return p.l.Get()
}

// Put recycles a buffer. The caller must not touch b afterwards — any
// attr views parsed from it are dead. Buffers that never came from Get
// are accepted too (the socket read path hands its frames here). A buffer
// grown past wireBufCap (a large info reply) is dropped for the GC, so the
// list's ceiling holds.
func (p *wirePool) Put(b []byte) {
	if cap(b) == 0 || cap(b) > wireBufCap {
		return
	}
	p.l.Put(b[:0])
}

// Stats snapshots pool traffic counters. In steady state News stays flat
// while Gets climbs.
func (p *wirePool) Stats() freelist.Stats {
	return p.l.Stats()
}

// Wire is the shared wire-buffer pool used by the simulated and socket
// transports and by everything that marshals control-plane messages.
var Wire = newPool()
