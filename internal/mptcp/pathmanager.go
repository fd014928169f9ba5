package mptcp

import (
	"net/netip"
	"time"

	"repro/internal/tcp"
)

// PathManager is the in-kernel path-manager interface — the "red interface"
// of the paper's Figure 1. The kernel (here: Endpoint/Connection) calls
// these hooks; implementations decide when subflows are created and
// destroyed using the command methods on Connection (OpenSubflow,
// CloseSubflow, SetBackup, GetInfo via FillInfo).
//
// Three peers sit behind this interface, exactly as in the paper:
// pm.FullMesh and pm.NDiffPorts (the two strategies shipped in the Linux
// kernel) and core.NetlinkPM, which forwards every hook as a Netlink event
// to a userspace subflow controller.
type PathManager interface {
	// ConnCreated fires when a connection comes into existence (SYN sent
	// on the client, SYN received on the server).
	ConnCreated(c *Connection)
	// ConnEstablished fires when the MP_CAPABLE handshake completes.
	ConnEstablished(c *Connection)
	// ConnClosed fires when the connection is fully gone.
	ConnClosed(c *Connection)

	// SubflowEstablished fires when any subflow (initial or joined,
	// locally or remotely initiated) completes its handshake.
	SubflowEstablished(c *Connection, sf *tcp.Subflow)
	// SubflowClosed fires when a subflow dies; reason is the errno the
	// paper's sub_closed event carries.
	SubflowClosed(c *Connection, sf *tcp.Subflow, reason tcp.Errno)

	// AddrAnnounced fires when the peer advertises an address (ADD_ADDR).
	AddrAnnounced(c *Connection, id uint8, addr netip.Addr, port uint16)
	// AddrRemoved fires when the peer withdraws an address (REMOVE_ADDR).
	AddrRemoved(c *Connection, id uint8)

	// Timeout fires on every subflow retransmission-timer expiry, with
	// the backed-off RTO now in force — the paper's timeout event.
	Timeout(c *Connection, sf *tcp.Subflow, rto time.Duration, backoffs int)

	// LocalAddrUp / LocalAddrDown fire on host interface transitions
	// (the paper's new_local_addr / del_local_addr events).
	LocalAddrUp(addr netip.Addr)
	LocalAddrDown(addr netip.Addr)
}

// NopPM is a PathManager that does nothing: connections keep only the
// subflows their peers create. It is the "default" baseline and a
// convenient embedding for managers that care about few hooks.
type NopPM struct{}

// ConnCreated implements PathManager.
func (NopPM) ConnCreated(*Connection) {}

// ConnEstablished implements PathManager.
func (NopPM) ConnEstablished(*Connection) {}

// ConnClosed implements PathManager.
func (NopPM) ConnClosed(*Connection) {}

// SubflowEstablished implements PathManager.
func (NopPM) SubflowEstablished(*Connection, *tcp.Subflow) {}

// SubflowClosed implements PathManager.
func (NopPM) SubflowClosed(*Connection, *tcp.Subflow, tcp.Errno) {}

// AddrAnnounced implements PathManager.
func (NopPM) AddrAnnounced(*Connection, uint8, netip.Addr, uint16) {}

// AddrRemoved implements PathManager.
func (NopPM) AddrRemoved(*Connection, uint8) {}

// Timeout implements PathManager.
func (NopPM) Timeout(*Connection, *tcp.Subflow, time.Duration, int) {}

// LocalAddrUp implements PathManager.
func (NopPM) LocalAddrUp(netip.Addr) {}

// LocalAddrDown implements PathManager.
func (NopPM) LocalAddrDown(netip.Addr) {}
