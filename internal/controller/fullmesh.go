package controller

import (
	"net/netip"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
	"repro/internal/seg"
)

// FullMesh is the §4.1 controller: it reimplements the kernel full-mesh
// path manager in userspace and adds what the kernel one lacks — smart
// re-establishment of failed subflows. When a subflow dies it inspects the
// error condition and retries after an error-specific delay: quickly after
// a RST (a middlebox dropped state we can immediately rebuild), more
// patiently after a timeout, and slower still when the network was
// unreachable. This keeps long-lived connections (ssh, chat, push
// notifications) alive through aggressive NAT/firewall idle timeouts
// without blind periodic keepalives.
type FullMesh struct {
	// RetryAfterRST is the re-establishment delay after ECONNRESET.
	RetryAfterRST time.Duration
	// RetryAfterTimeout is the delay after ETIMEDOUT.
	RetryAfterTimeout time.Duration
	// RetryAfterUnreach is the delay after ENETUNREACH / ICMP errors.
	RetryAfterUnreach time.Duration
	// LocalAddrs seeds the set of local interface addresses (kept current
	// afterwards via new_local_addr / del_local_addr events).
	LocalAddrs []netip.Addr

	lib core.Lib
	// local, the usable interface addresses, is kept sorted as it changes:
	// meshing walks it, and must issue its commands in the same sequence
	// every run. Commands are asynchronous — replies and events arrive as
	// later callbacks — so it never changes under a walk.
	local []netip.Addr

	// The connection being managed, from its created event to its closed.
	open  bool
	token uint32
	// remotes is kept as an ordered list (initial destination first,
	// announcements in arrival order): meshing iterates it, and a map
	// here would issue create-subflow commands in a different order each
	// run, breaking per-seed determinism.
	remotes []netip.AddrPort
	// live subflows by (local addr, remote addrport); the source port is
	// deliberately not part of the key — re-established subflows use
	// fresh ports.
	live    map[meshKey]seg.FourTuple
	pending map[meshKey]func() // scheduled retries, cancellable
	// creating holds the keys of the create commands not yet acked, oldest
	// first: a library acks one connection's commands in send order, so
	// created — the one done callback every create passes — takes the
	// head, and a create costs no closure.
	creating []meshKey
	created  func(errno uint32)

	keyBuf []meshKey // onLocalDown's dismissal list, reused
	Stats  FullMeshStats
}

// FullMeshStats counts controller activity.
type FullMeshStats struct {
	SubflowsCreated   uint64
	Reestablishments  uint64
	RetriesByErrno    map[uint32]uint64
	SubflowsDismissed uint64 // removed because their interface went away
}

type meshKey struct {
	local  netip.Addr
	remote netip.AddrPort
}

// NewFullMesh builds the controller with the paper's retry behaviour.
func NewFullMesh(localAddrs []netip.Addr) *FullMesh {
	return &FullMesh{
		RetryAfterRST:     time.Second,
		RetryAfterTimeout: 3 * time.Second,
		RetryAfterUnreach: 5 * time.Second,
		LocalAddrs:        localAddrs,
		live:              make(map[meshKey]seg.FourTuple),
		pending:           make(map[meshKey]func()),
		Stats:             FullMeshStats{RetriesByErrno: make(map[uint32]uint64)},
	}
}

// Name implements Controller.
func (f *FullMesh) Name() string { return "user-fullmesh" }

// Attach implements Controller: it listens to every event of §3.
func (f *FullMesh) Attach(lib core.Lib) {
	f.lib = lib
	f.created = f.createAcked
	for _, a := range f.LocalAddrs {
		f.setLocal(a, true)
	}
	lib.Register(core.Callbacks{
		Created:        f.onCreated,
		Established:    f.onEstablished,
		Closed:         f.onClosed,
		SubEstablished: f.onSubEstablished,
		SubClosed:      f.onSubClosed,
		AddAddr:        f.onAddAddr,
		RemAddr:        f.onRemAddr,
		LocalAddrUp:    f.onLocalUp,
		LocalAddrDown:  f.onLocalDown,
	}, nil)
}

// Detach implements Controller: cancel every scheduled retry and end the
// connection, so the controller never acts again.
func (f *FullMesh) Detach() { f.onClosed(nil) }

// hasLocal reports whether addr is a usable local interface address.
func (f *FullMesh) hasLocal(addr netip.Addr) bool {
	_, ok := slices.BinarySearchFunc(f.local, addr, netip.Addr.Compare)
	return ok
}

// setLocal adds addr to, or removes it from, the sorted local set.
func (f *FullMesh) setLocal(addr netip.Addr, up bool) {
	i, have := slices.BinarySearchFunc(f.local, addr, netip.Addr.Compare)
	switch {
	case up && !have:
		f.local = slices.Insert(f.local, i, addr)
	case !up && have:
		f.local = slices.Delete(f.local, i, i+1)
	}
}

func (f *FullMesh) onCreated(ev *nlmsg.Event) {
	f.onClosed(nil) // a connection restarted without its closed event
	f.open, f.token = true, ev.Token
	remote := netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)
	f.remotes = append(f.remotes[:0], remote)
	f.creating = f.creating[:0]
	// The created event carries the initial subflow's 4-tuple; mark it
	// live so the mesh does not duplicate it.
	clear(f.live)
	f.live[meshKey{ev.Tuple.SrcIP, remote}] = ev.Tuple
}

func (f *FullMesh) onEstablished(*nlmsg.Event) { f.mesh() }

// onClosed cancels every scheduled retry. (Cancellation has no observable
// side effects, so map order is harmless here.)
func (f *FullMesh) onClosed(*nlmsg.Event) {
	f.open = false
	for _, cancel := range f.pending {
		cancel()
	}
	clear(f.pending)
}

func (f *FullMesh) onSubEstablished(ev *nlmsg.Event) {
	if !f.open {
		return
	}
	key := meshKey{ev.Tuple.SrcIP, netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)}
	f.live[key] = ev.Tuple
}

// onSubClosed is the heart of §4.1: analyse the error condition and
// schedule a re-establishment with an error-specific timeout.
func (f *FullMesh) onSubClosed(ev *nlmsg.Event) {
	if !f.open {
		return
	}
	key := meshKey{ev.Tuple.SrcIP, netip.AddrPortFrom(ev.Tuple.DstIP, ev.Tuple.DstPort)}
	delete(f.live, key)
	if !f.hasLocal(key.local) {
		return // interface is gone; LocalAddrUp will rebuild later
	}
	var delay time.Duration
	switch ev.Errno {
	case uint32(104): // ECONNRESET — middlebox dropped state; rebuild fast
		delay = f.RetryAfterRST
	case uint32(110): // ETIMEDOUT
		delay = f.RetryAfterTimeout
	case uint32(101), uint32(111): // ENETUNREACH / ECONNREFUSED
		delay = f.RetryAfterUnreach
	default:
		delay = f.RetryAfterTimeout
	}
	f.Stats.RetriesByErrno[ev.Errno]++
	f.scheduleRetry(key, delay)
}

func (f *FullMesh) scheduleRetry(key meshKey, delay time.Duration) {
	if _, dup := f.pending[key]; dup {
		return
	}
	f.pending[key] = f.lib.After(delay, func() {
		delete(f.pending, key)
		if !f.open || !f.hasLocal(key.local) {
			return
		}
		if _, alive := f.live[key]; alive {
			return
		}
		f.Stats.Reestablishments++
		f.create(key)
	})
}

func (f *FullMesh) create(key meshKey) {
	ft := seg.FourTuple{SrcIP: key.local, DstIP: key.remote.Addr(), SrcPort: 0, DstPort: key.remote.Port()}
	f.Stats.SubflowsCreated++
	f.creating = append(f.creating, key) // first: a Lib may ack before it returns
	f.lib.CreateSubflow(f.token, ft, false, f.created)
}

// createAcked handles the ack of the oldest outstanding create.
func (f *FullMesh) createAcked(errno uint32) {
	if len(f.creating) == 0 {
		return // an ack no create is waiting for
	}
	key := f.creating[0]
	f.creating = slices.Delete(f.creating, 0, 1)
	if errno != 0 && f.open {
		// Creation failed (e.g. interface flapped again): back off.
		f.scheduleRetry(key, f.RetryAfterUnreach)
	}
}

func (f *FullMesh) onAddAddr(ev *nlmsg.Event) {
	if !f.open {
		return
	}
	port := ev.Port
	if port == 0 {
		// Join on the connection's original port when none was announced
		// (remotes[0] is always the initial destination).
		port = f.remotes[0].Port()
	}
	if r := netip.AddrPortFrom(ev.Addr, port); !slices.Contains(f.remotes, r) {
		f.remotes = append(f.remotes, r)
	}
	f.mesh()
}

func (f *FullMesh) onRemAddr(ev *nlmsg.Event) {
	// Address IDs arrive without the address; a production controller
	// would keep an ID→addr map. We conservatively leave existing
	// subflows alone (the peer will RST them if truly gone).
}

func (f *FullMesh) onLocalUp(ev *nlmsg.Event) {
	f.setLocal(ev.Addr, true)
	f.mesh()
}

func (f *FullMesh) onLocalDown(ev *nlmsg.Event) {
	f.setLocal(ev.Addr, false)
	if !f.open {
		return
	}
	// Dismiss the lost interface's subflows in a sorted order: the remove
	// commands race down the Netlink transport, and map order here would
	// reorder them across runs.
	keys := f.keyBuf[:0]
	for key := range f.live {
		if key.local == ev.Addr {
			keys = append(keys, key)
		}
	}
	sortMeshKeys(keys)
	for _, key := range keys {
		ft := f.live[key]
		delete(f.live, key)
		f.Stats.SubflowsDismissed++
		f.lib.RemoveSubflow(f.token, ft, nil)
	}
	f.keyBuf = keys[:0]
	// Cancel any retry scheduled for the lost interface (cancel order is
	// unobservable; no sort needed).
	for key, cancel := range f.pending {
		if key.local == ev.Addr {
			cancel()
			delete(f.pending, key)
		}
	}
}

// mesh creates any missing local×remote subflow. Local addresses are
// walked in sorted order and remotes in announcement order, so the
// create commands (and the random ports they draw) are issued in the
// same order every run.
func (f *FullMesh) mesh() {
	if !f.open {
		return
	}
	for _, laddr := range f.local {
		for _, remote := range f.remotes {
			key := meshKey{laddr, remote}
			if _, alive := f.live[key]; alive {
				continue
			}
			if _, pending := f.pending[key]; pending {
				continue
			}
			f.create(key)
		}
	}
}

// sortMeshKeys orders keys by (local, remote) address and port.
func sortMeshKeys(keys []meshKey) {
	slices.SortFunc(keys, func(a, b meshKey) int {
		if c := a.local.Compare(b.local); c != 0 {
			return c
		}
		if c := a.remote.Addr().Compare(b.remote.Addr()); c != 0 {
			return c
		}
		return int(a.remote.Port()) - int(b.remote.Port())
	})
}
