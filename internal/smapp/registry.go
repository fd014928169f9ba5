package smapp

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/controller"
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

var ctlRegistry = struct {
	sync.RWMutex
	factories map[string]ControllerFactory
	descs     map[string]string
}{factories: make(map[string]ControllerFactory), descs: make(map[string]string)}

// RegisterControllerDesc makes a subflow-controller policy available by
// name, with a one-line description for listings (`mpexp list`), to
// Stack.Dial/Listen/SwitchPolicy, cmd/mpexp -controller, and sweep axes;
// the committed controller sweeps (examples/manifests/ctlsweep.json,
// fleetsweep.json) must list it, which a test checks. It panics on an
// empty name or a duplicate registration — both are programming errors,
// caught at init time.
func RegisterControllerDesc(name, desc string, f ControllerFactory) {
	if name == "" || f == nil {
		panic("smapp: RegisterControllerDesc with empty name or nil factory")
	}
	ctlRegistry.Lock()
	defer ctlRegistry.Unlock()
	if _, dup := ctlRegistry.factories[name]; dup {
		panic(fmt.Sprintf("smapp: controller %q registered twice", name))
	}
	ctlRegistry.factories[name] = f
	ctlRegistry.descs[name] = desc
}

// ControllerInfo describes a registered controller for listings.
type ControllerInfo struct {
	Name string
	Desc string
}

// Controllers lists every registered controller with its description,
// sorted by name.
func Controllers() []ControllerInfo {
	ctlRegistry.RLock()
	defer ctlRegistry.RUnlock()
	out := make([]ControllerInfo, 0, len(ctlRegistry.factories))
	for _, n := range controllerNamesLocked() {
		out = append(out, ControllerInfo{Name: n, Desc: ctlRegistry.descs[n]})
	}
	return out
}

// LookupController resolves a policy name. The empty name is the nil
// policy — valid, returning a nil factory: the connection runs with no
// userspace controller at all (the "plain stack" baseline the experiments
// compare against). Unknown names list what is registered.
func LookupController(name string) (ControllerFactory, error) {
	if name == "" {
		return nil, nil
	}
	ctlRegistry.RLock()
	defer ctlRegistry.RUnlock()
	f, ok := ctlRegistry.factories[name]
	if !ok {
		return nil, fmt.Errorf("smapp: unknown controller %q (registered: %s)",
			name, strings.Join(controllerNamesLocked(), ", "))
	}
	return f, nil
}

// ControllerNames lists every registered controller policy, sorted.
func ControllerNames() []string {
	ctlRegistry.RLock()
	defer ctlRegistry.RUnlock()
	return controllerNamesLocked()
}

func controllerNamesLocked() []string {
	names := make([]string, 0, len(ctlRegistry.factories))
	for n := range ctlRegistry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The five paper controllers self-register under their §4 names.
func init() {
	RegisterControllerDesc("fullmesh",
		"§4.1: keep a subflow over every local interface, re-establishing with error-specific backoff",
		func(cfg ControllerConfig) (controller.Controller, error) {
			if len(cfg.Addrs) == 0 {
				return nil, fmt.Errorf("smapp: fullmesh needs at least one local address")
			}
			return controller.NewFullMesh(cfg.Addrs), nil
		})
	RegisterControllerDesc("backup",
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
	RegisterControllerDesc("stream",
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
	RegisterControllerDesc("refresh",
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
	RegisterControllerDesc("ndiffports",
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
