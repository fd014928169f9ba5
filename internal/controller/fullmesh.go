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
	// LocalAddrs seeds the set of local interface addresses (kept current
	// afterwards via new_local_addr / del_local_addr events).
	LocalAddrs []netip.Addr

	session
	// local, the usable interface addresses, is kept sorted as it changes:
	// meshing walks it, and must issue its commands in the same sequence
	// every run. Commands are asynchronous — replies and events arrive as
	// later callbacks — so it never changes under a walk.
	local []netip.Addr

	// added holds the remotes the peer announced besides the initial
	// destination, in arrival order: meshing walks the initial one, then
	// these, and a map here would issue create-subflow commands in a
	// different order each run, breaking per-seed determinism.
	added []netip.AddrPort
	// live holds the live subflows sorted by keyOf — (local addr, remote
	// addrport); the source port is deliberately not part of the key, as
	// re-established subflows use fresh ports. An entry with source port 0
	// holds a pair whose create was acked but whose subflow is not up yet
	// (createAcked). A connection has a handful, so a sorted slice beats a
	// map, and liveRoom holds the usual mesh without an allocation.
	live     []seg.FourTuple
	liveRoom [4]seg.FourTuple
	pending  map[meshKey]func() // scheduled retries, cancellable (nil until the first)
	// creating holds the keys of the create commands not yet acked, oldest
	// first: a library acks each command once, in send order (core.Lib),
	// so created — the one done callback every create passes — takes the
	// head, and a create costs no closure. An earlier connection's creates
	// keep their places under the zero key, which no pair has, until their
	// acks come.
	creating []meshKey
	created  func(errno uint32)

	Stats FullMeshStats
}

// FullMeshStats counts controller activity.
type FullMeshStats struct {
	SubflowsCreated   uint64
	Reestablishments  uint64
	RetriesByErrno    map[uint32]uint64 // nil until the first retry
	SubflowsDismissed uint64            // removed because their interface went away
}

type meshKey struct {
	local  netip.Addr
	remote netip.AddrPort
}

func keyOf(ft seg.FourTuple) meshKey {
	return meshKey{ft.SrcIP, netip.AddrPortFrom(ft.DstIP, ft.DstPort)}
}

// findLive reports where key's subflow is, or would go, in the live set
// (sorted by local address, then remote address and port), and whether it
// is there.
func (f *FullMesh) findLive(key meshKey) (int, bool) {
	return slices.BinarySearchFunc(f.live, key, func(ft seg.FourTuple, k meshKey) int {
		if c := ft.SrcIP.Compare(k.local); c != 0 {
			return c
		}
		return netip.AddrPortFrom(ft.DstIP, ft.DstPort).Compare(k.remote)
	})
}

// setLive records ft as the live subflow of its key, replacing any other.
func (f *FullMesh) setLive(ft seg.FourTuple) {
	if i, ok := f.findLive(keyOf(ft)); ok {
		f.live[i] = ft
	} else {
		f.live = slices.Insert(f.live, i, ft)
	}
}

// dropLive forgets key's live subflow, if any.
func (f *FullMesh) dropLive(key meshKey) {
	if i, ok := f.findLive(key); ok {
		f.live = slices.Delete(f.live, i, i+1)
	}
}

// idle reports whether key has no live or held subflow, no create
// awaiting its ack and no retry scheduled: only then does a create for it
// go out.
func (f *FullMesh) idle(key meshKey) bool {
	_, live := f.findLive(key)
	_, retrying := f.pending[key]
	return !live && !retrying && !slices.Contains(f.creating, key)
}

// The paper's re-establishment delays, by the error that killed the
// subflow.
const (
	retryAfterRST     = time.Second     // ECONNRESET
	retryAfterTimeout = 3 * time.Second // ETIMEDOUT
	retryAfterUnreach = 5 * time.Second // ENETUNREACH / ICMP errors
)

// NewFullMesh builds the controller with the paper's retry behaviour.
// pending and Stats.RetriesByErrno stay nil until a subflow dies: most
// connections never lose one.
func NewFullMesh(localAddrs []netip.Addr) *FullMesh {
	f := &FullMesh{
		LocalAddrs: localAddrs,
		local:      make([]netip.Addr, 0, len(localAddrs)),
	}
	f.live = f.liveRoom[:0]
	return f
}

// Attach implements Controller: it listens to every event of §3, all
// through one handler.
func (f *FullMesh) Attach(lib core.Lib) {
	f.lib = lib
	f.created = f.createAcked
	for _, a := range f.LocalAddrs {
		f.setLocal(a, true)
	}
	h := f.handle
	lib.Register(core.Callbacks{
		Created: h, Established: h, Closed: h, SubEstablished: h, SubClosed: h,
		AddAddr: h, RemAddr: h, LocalAddrUp: h, LocalAddrDown: h,
	}, nil)
}

// handle is the one event handler Attach registers.
func (f *FullMesh) handle(ev *nlmsg.Event) {
	if !f.admit(ev) {
		return
	}
	switch ev.Kind {
	case nlmsg.EvCreated:
		f.cancelRetries() // a connection restarted without its closed event
		f.added = f.added[:0]
		clear(f.creating)
		// The created event carries the initial subflow's 4-tuple; mark
		// it live so the mesh does not duplicate it.
		f.live = append(f.live[:0], ev.Tuple)
	case nlmsg.EvEstablished:
		f.mesh()
	case nlmsg.EvClosed:
		f.cancelRetries()
	case nlmsg.EvSubEstablished:
		f.setLive(ev.Tuple)
	case nlmsg.EvSubClosed:
		f.onSubClosed(ev)
	case nlmsg.EvAddAddr:
		f.onAddAddr(ev)
	case nlmsg.EvRemAddr:
		// Address IDs arrive without the address; a production controller
		// would keep an ID→addr map. We conservatively leave existing
		// subflows alone (the peer will RST them if truly gone).
	case nlmsg.EvLocalAddrUp:
		f.setLocal(ev.Addr, true)
		if f.open {
			f.mesh()
		}
	case nlmsg.EvLocalAddrDown:
		f.onLocalDown(ev)
	}
}

// Detach implements Controller: end the connection and cancel every
// scheduled retry, so the controller never acts again.
func (f *FullMesh) Detach() {
	f.end()
	f.cancelRetries()
}

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

// cancelRetries cancels every scheduled retry. (Cancellation has no
// observable side effects, so map order is harmless here.)
func (f *FullMesh) cancelRetries() {
	for _, cancel := range f.pending {
		cancel()
	}
	clear(f.pending)
}

// onSubClosed is the heart of §4.1: analyse the error condition and
// schedule a re-establishment with an error-specific timeout.
func (f *FullMesh) onSubClosed(ev *nlmsg.Event) {
	key := keyOf(ev.Tuple)
	f.dropLive(key)
	if !f.hasLocal(key.local) {
		return // interface is gone; LocalAddrUp will rebuild later
	}
	var delay time.Duration
	switch ev.Errno {
	case uint32(104): // ECONNRESET — middlebox dropped state; rebuild fast
		delay = retryAfterRST
	case uint32(110): // ETIMEDOUT
		delay = retryAfterTimeout
	case uint32(101), uint32(111): // ENETUNREACH / ECONNREFUSED
		delay = retryAfterUnreach
	default:
		delay = retryAfterTimeout
	}
	if f.Stats.RetriesByErrno == nil {
		f.Stats.RetriesByErrno = make(map[uint32]uint64)
	}
	f.Stats.RetriesByErrno[ev.Errno]++
	f.scheduleRetry(key, delay)
}

func (f *FullMesh) scheduleRetry(key meshKey, delay time.Duration) {
	if _, dup := f.pending[key]; dup {
		return
	}
	if f.pending == nil {
		f.pending = make(map[meshKey]func())
	}
	f.pending[key] = f.lib.Clock().After(delay, func() {
		delete(f.pending, key)
		if !f.hasLocal(key.local) || !f.idle(key) {
			return
		}
		f.Stats.Reestablishments++
		f.create(key)
	})
}

func (f *FullMesh) create(key meshKey) {
	f.Stats.SubflowsCreated++
	f.creating = append(f.creating, key) // first: a Lib may ack before it returns
	f.join(key.local, key.remote, f.created)
}

// createAcked handles the ack of the oldest outstanding create. A create
// acked with errno 0 while its local address is up holds its pair with a
// port-0 live entry: the kernel acks a create when it sends the SYN, so a
// mesh during the handshake must not create the pair again. The subflow's
// sub_established replaces the entry; its sub_closed, the address going
// down or the next created drops it (nothing reads the set between closed
// or Detach and created).
func (f *FullMesh) createAcked(errno uint32) {
	if len(f.creating) == 0 {
		return // an ack no create is waiting for
	}
	key := f.creating[0]
	f.creating = slices.Delete(f.creating, 0, 1)
	if !f.open || key == (meshKey{}) {
		return
	}
	switch i, live := f.findLive(key); {
	case errno != 0:
		// Creation failed (e.g. interface flapped again): back off.
		f.scheduleRetry(key, retryAfterUnreach)
	case !live && f.hasLocal(key.local):
		f.live = slices.Insert(f.live, i, seg.FourTuple{
			SrcIP: key.local, DstIP: key.remote.Addr(), DstPort: key.remote.Port(),
		})
	}
}

func (f *FullMesh) onAddAddr(ev *nlmsg.Event) {
	port := ev.Port
	if port == 0 {
		port = f.port // join on the connection's original port
	}
	if r := netip.AddrPortFrom(ev.Addr, port); r != f.dest() && !slices.Contains(f.added, r) {
		f.added = append(f.added, r)
	}
	f.mesh()
}

func (f *FullMesh) onLocalDown(ev *nlmsg.Event) {
	f.setLocal(ev.Addr, false)
	if !f.open {
		return
	}
	// Dismiss the lost interface's subflows in key order: the live set is
	// sorted by local address first, so they are the run that starts where
	// the address would. Each leaves the set before its remove command
	// goes out, so the walk holds nothing a command could change. A held
	// pair has no subflow to remove yet.
	for {
		i, _ := f.findLive(meshKey{local: ev.Addr})
		if i == len(f.live) || f.live[i].SrcIP != ev.Addr {
			break
		}
		ft := f.live[i]
		f.live = slices.Delete(f.live, i, i+1)
		if ft.SrcPort != 0 {
			f.Stats.SubflowsDismissed++
			f.lib.RemoveSubflow(f.token, ft, nil)
		}
	}
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
// walked in sorted order and remotes in announcement order (the initial
// destination first), so the create commands (and the random ports they
// draw) are issued in the same order every run.
func (f *FullMesh) mesh() {
	for _, laddr := range f.local {
		if key := (meshKey{laddr, f.dest()}); f.idle(key) {
			f.create(key)
		}
		for _, remote := range f.added {
			if key := (meshKey{laddr, remote}); f.idle(key) {
				f.create(key)
			}
		}
	}
}
