// Package controller implements the paper's sample subflow controllers
// (§4) — userspace policies written against the PM library (core.Lib),
// never touching Netlink bytes or kernel state directly. Each is a small
// policy over one connection's events, its state held in the controller
// struct itself:
//
//   - FullMesh (§4.1): a userspace reimplementation of the kernel
//     full-mesh path manager, extended with error-aware re-establishment of
//     failed subflows for long-lived connections behind NATs/firewalls
//     (≈800 LoC of C in the paper);
//   - Backup (§4.2): break-before-make backup handling — the backup
//     subflow is created only when the primary's retransmission timer
//     exceeds a threshold;
//   - Stream (§4.3): block-streaming support — probes transfer progress
//     mid-block via snd_una and opens/kills subflows to keep block
//     latency bounded;
//   - Refresh (§4.4): ECMP exploitation — opens n subflows on random
//     source ports and periodically replaces the one with the lowest
//     pacing_rate (230 LoC of C in the paper);
//   - NDiffPorts (§4.5): a userspace clone of the kernel ndiffports
//     manager, used to measure the Netlink crossing cost of Fig. 3.
package controller

import (
	"repro/internal/core"
)

// Controller is a subflow-management policy over ONE connection: a state
// machine its created event (re)starts and its closed event ends, so an
// instance may serve connections one after another but never two at once,
// and ignores events outside that span. Which connection an event belongs
// to is settled before it gets here (internal/smapp's token table runs one
// instance per connection); commands carry the token learned at created.
//
// Attach registers the event callbacks on lib. Detach cancels every
// pending timer and ends the connection; after Detach the controller takes
// no further actions, so a live connection can be handed to a replacement
// policy (smapp.Stack.SwitchPolicy).
type Controller interface {
	Name() string
	Attach(lib core.Lib)
	Detach()
}
