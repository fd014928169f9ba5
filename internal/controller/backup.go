package controller

import (
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/nlmsg"
)

// Backup is the §4.2 controller: smarter backup subflows for mobile hosts.
//
// The RFC 6824 backup flag only helps once the primary subflow *fails*,
// which with a flaky-but-not-dead radio takes the kernel 15 RTO doublings
// (≈12 minutes) to declare. This controller instead:
//
//   - does NOT pre-establish the backup subflow (Multipath TCP supports
//     break-before-make), saving energy and radio resources on the backup
//     interface;
//   - listens to timeout events; when the reported (backed-off) RTO of the
//     primary exceeds Threshold, it declares the subflow underperforming,
//     removes it, and creates a subflow over the backup interface to
//     continue the transfer.
type Backup struct {
	// Threshold is the RTO value above which the primary is considered
	// dead (the paper uses 1 s; Fig. 2a shows the switch at that point).
	Threshold time.Duration
	// BackupAddr is the local address of the backup interface.
	BackupAddr netip.Addr

	session
	switched bool // this connection has switched to the backup
	Stats    BackupStats
}

// BackupStats counts controller activity.
type BackupStats struct {
	Switches uint64 // primary→backup switchovers
}

// NewBackup builds the controller with the paper's 1-second threshold.
func NewBackup(backupAddr netip.Addr) *Backup {
	return &Backup{Threshold: time.Second, BackupAddr: backupAddr}
}

// Attach implements Controller. It subscribes only to what it needs:
// connection lifecycle, timeout events, and subflow closures.
func (b *Backup) Attach(lib core.Lib) {
	b.lib = lib
	h := b.handle
	lib.Register(core.Callbacks{Created: h, Closed: h, Timeout: h, SubClosed: h}, nil)
}

// handle is the one event handler Attach registers.
func (b *Backup) handle(ev *nlmsg.Event) {
	if !b.admit(ev) {
		return
	}
	switch ev.Kind {
	case nlmsg.EvCreated:
		b.switched = false
	case nlmsg.EvTimeout:
		b.onTimeout(ev)
	case nlmsg.EvSubClosed:
		b.onSubClosed(ev)
	}
}

// onTimeout implements the paper's policy: "When a retransmission timer
// expires, it checks the current value of the timer. If the timer becomes
// larger than a configured threshold, the subflow is considered to be
// underperforming. The controller then closes the underperforming subflow
// and creates a subflow over the backup interface."
func (b *Backup) onTimeout(ev *nlmsg.Event) {
	if b.switched || ev.RTO <= b.Threshold {
		return
	}
	if ev.Tuple.SrcIP == b.BackupAddr {
		return // the backup itself is struggling; nothing better to do
	}
	b.lib.RemoveSubflow(b.token, ev.Tuple, nil)
	b.switchOver()
}

// onSubClosed covers the primary dying outright (RST, kernel gave up)
// before any timeout crossed the threshold.
func (b *Backup) onSubClosed(ev *nlmsg.Event) {
	if b.switched || ev.Tuple.SrcIP == b.BackupAddr {
		return
	}
	b.switchOver()
}

// switchOver continues the connection over the backup interface.
func (b *Backup) switchOver() {
	b.switched = true
	b.Stats.Switches++
	b.join(b.BackupAddr, b.dest(), nil)
}
