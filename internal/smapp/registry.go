package smapp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"repro/internal/controller"
	"repro/internal/mptcp"
	"repro/internal/pm"
	"repro/internal/registry"
)

// ControllerConfig is the uniform knob set every policy factory takes:
// local addresses, subflow counts and thresholds. Factories read only the
// fields that make sense for their policy and validate the rest, so one
// config type parameterises all five paper controllers, the in-kernel
// path managers (and any policy registered later).
type ControllerConfig struct {
	// Addrs are the host's local addresses. Addrs[0] is the primary
	// interface; Addrs[1], when present, is the backup / second one
	// (backup and stream require it). Stack.Dial and Stack.Listen fill in
	// the host's interface addresses when left empty.
	Addrs []netip.Addr
	// Subflows is the concurrent-subflow target (refresh, ndiffports,
	// kernel-ndiffports). Zero picks the policy's paper default.
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

// KernelPMFactory builds the in-kernel path manager of one stack.
// Factories validate cfg and must not retain it.
type KernelPMFactory func(cfg ControllerConfig) (mptcp.PathManager, error)

// KernelPMs is the in-kernel path-manager table: the baselines the paper
// compares its controllers against. A stack built with one (Config.KernelPM)
// has no userspace control plane, so its connections dial with the nil
// policy. Its names and the controllers' are one namespace, the one a
// scenario's "policy" parameter takes (Policies, LookupPolicy).
var KernelPMs = registry.New[KernelPMFactory]("smapp", "in-kernel path manager")

// Policies lists every name LookupPolicy resolves: the controllers, then
// the in-kernel path managers.
func Policies() []registry.Info {
	return append(Controllers.Infos(), KernelPMs.Infos()...)
}

// LookupPolicy resolves a policy name into what a stack is built with: the
// factory of the in-kernel path manager it names, or nil when it names a
// controller (bound to each connection at dial) or is the nil policy "".
// An unknown name's error lists every name Policies does.
func LookupPolicy(name string) (KernelPMFactory, error) {
	if k, ok := KernelPMs.Get(name); ok {
		return k, nil
	}
	if _, ok := Controllers.Get(name); ok || name == "" {
		return nil, nil
	}
	names := slices.Concat(Controllers.Names(), KernelPMs.Names())
	return nil, fmt.Errorf("smapp: unknown policy %q (registered: %s)", name, strings.Join(names, ", "))
}

// The five paper controllers self-register under their §4 names, and the
// in-kernel path managers under kernel-prefixed ones.
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

	// The in-kernel path managers, each the baseline side of a §4 pair.
	KernelPMs.Register("kernel",
		"in-kernel full mesh: a subflow per local × remote address pair, no userspace control plane",
		func(ControllerConfig) (mptcp.PathManager, error) { return pm.NewFullMesh(), nil })
	KernelPMs.Register("kernel-ndiffports",
		"in-kernel ndiffports: N subflows over the initial address pair, no userspace control plane",
		func(cfg ControllerConfig) (mptcp.PathManager, error) {
			if cfg.Subflows < 0 {
				return nil, fmt.Errorf("smapp: kernel-ndiffports needs a positive subflow count, got %d", cfg.Subflows)
			}
			return pm.NewNDiffPorts(cmp.Or(cfg.Subflows, 2)), nil // as ndiffports
		})
	KernelPMs.Register("kernel-none",
		"in-kernel manager that opens no subflow: the initial one only, no userspace control plane",
		func(ControllerConfig) (mptcp.PathManager, error) { return mptcp.NopPM{}, nil })
}
