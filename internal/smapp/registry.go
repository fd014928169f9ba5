package smapp

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/controller"
	"repro/internal/registry"
)

// ControllerConfig is the uniform knob set every controller factory takes:
// local addresses, subflow counts and thresholds. Factories read only the
// fields that make sense for their policy and validate the rest, so one
// config type parameterises all five paper controllers (and any policy
// registered later).
type ControllerConfig struct {
	// Addrs are the host's local addresses. Addrs[0] is the primary
	// interface; Addrs[1], when present, is the backup / second one
	// (backup and stream require it). Stack.Dial and Stack.Listen fill in
	// the host's interface addresses when left empty.
	Addrs []netip.Addr
	// Subflows is the concurrent-subflow target (refresh, ndiffports).
	// Zero picks the policy's paper default.
	Subflows int
	// Threshold is the RTO value past which a subflow counts as dead:
	// the backup controller's switch threshold and the stream
	// controller's kill limit. Zero keeps the paper's 1 s.
	Threshold time.Duration
	// Period is the block cadence of the streaming workload (stream).
	Period time.Duration
	// BlockSize is the bytes per block (stream); the mid-block progress
	// requirement derives as BlockSize/2, as in §4.3.
	BlockSize int
	// Probe is the intra-block probe point (stream). Zero keeps 500 ms.
	Probe time.Duration
}

// ControllerFactory builds a fresh controller instance for one attachment.
// Factories validate cfg and must not retain it.
type ControllerFactory func(cfg ControllerConfig) (controller.Controller, error)

// Controllers is the subflow-controller table: a policy registered here
// is available by name to Stack.Dial/Listen/SwitchPolicy, the scenarios'
// "policy" parameter, sweep axes and listings (`mpexp list`); the
// committed controller sweeps (examples/manifests/ctlsweep.json,
// fleetsweep.json) must list it, which a test checks.
var Controllers = registry.New[ControllerFactory]("smapp", "controller")

// LookupController resolves a policy name. The empty name is the nil
// policy — valid, returning a nil factory: the connection runs with no
// userspace controller at all (the "plain stack" baseline the experiments
// compare against). Unknown names list what is registered.
func LookupController(name string) (ControllerFactory, error) {
	if name == "" {
		return nil, nil
	}
	return Controllers.Lookup(name)
}

// The five paper controllers self-register under their §4 names.
func init() {
	Controllers.Register("fullmesh",
		"§4.1: keep a subflow over every local interface, re-establishing with error-specific backoff",
		func(cfg ControllerConfig) (controller.Controller, error) {
			if len(cfg.Addrs) == 0 {
				return nil, fmt.Errorf("smapp: fullmesh needs at least one local address")
			}
			return controller.NewFullMesh(cfg.Addrs), nil
		})
	Controllers.Register("backup",
		"§4.2: create the backup subflow only when the primary's RTO crosses the threshold",
		func(cfg ControllerConfig) (controller.Controller, error) {
			if len(cfg.Addrs) < 2 {
				return nil, fmt.Errorf("smapp: backup needs a second (backup) local address, got %d", len(cfg.Addrs))
			}
			b := controller.NewBackup(cfg.Addrs[1])
			if cfg.Threshold > 0 {
				b.Threshold = cfg.Threshold
			}
			return b, nil
		})
	Controllers.Register("stream",
		"§4.3: kill and replace subflows that stall a block past the intra-block probe point",
		func(cfg ControllerConfig) (controller.Controller, error) {
			if len(cfg.Addrs) < 2 {
				return nil, fmt.Errorf("smapp: stream needs a second local address, got %d", len(cfg.Addrs))
			}
			s := controller.NewStream(cfg.Addrs[1])
			if cfg.Period > 0 {
				s.Period = cfg.Period
			}
			if cfg.BlockSize > 0 {
				s.BlockSize = uint64(cfg.BlockSize)
				s.MinProgress = uint64(cfg.BlockSize) / 2
			}
			if cfg.Probe > 0 {
				s.CheckAfter = cfg.Probe
			}
			if cfg.Threshold > 0 {
				s.RTOLimit = cfg.Threshold
			}
			return s, nil
		})
	Controllers.Register("refresh",
		"§4.4: replace the slowest subflow until all ECMP paths carry traffic",
		func(cfg ControllerConfig) (controller.Controller, error) {
			n := cfg.Subflows
			if n == 0 {
				n = 5 // Fig. 2c
			}
			if n < 2 {
				return nil, fmt.Errorf("smapp: refresh needs at least 2 subflows to compare, got %d", n)
			}
			return controller.NewRefresh(n), nil
		})
	Controllers.Register("ndiffports",
		"§4.5: open N subflows over the same address pair on distinct ports",
		func(cfg ControllerConfig) (controller.Controller, error) {
			n := cfg.Subflows
			if n == 0 {
				n = 2 // Fig. 3
			}
			if n < 1 {
				return nil, fmt.Errorf("smapp: ndiffports needs a positive subflow count, got %d", n)
			}
			return controller.NewNDiffPorts(n), nil
		})
}
