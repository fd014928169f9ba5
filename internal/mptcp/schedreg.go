package mptcp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// SchedulerFactory builds a fresh per-connection scheduler. rng is the
// owning simulation's deterministic random source; randomized schedulers
// must draw from it (and only it) so runs stay reproducible per seed.
type SchedulerFactory func(rng *rand.Rand) Scheduler

var schedRegistry = struct {
	sync.RWMutex
	factories map[string]SchedulerFactory
	descs     map[string]string
}{factories: make(map[string]SchedulerFactory), descs: make(map[string]string)}

// RegisterSchedulerDesc makes a scheduler available by name, with a
// one-line description for listings (`mpexp list`), to endpoint
// configuration, cmd/mpexp -sched, and sweep axes; the committed
// scheduler sweeps (examples/manifests/schedsweep.json, fleetsweep.json)
// must list it, which a test checks. It panics on an empty name or a
// duplicate registration — both are programming errors, caught at init
// time.
func RegisterSchedulerDesc(name, desc string, f SchedulerFactory) {
	if name == "" || f == nil {
		panic("mptcp: RegisterSchedulerDesc with empty name or nil factory")
	}
	schedRegistry.Lock()
	defer schedRegistry.Unlock()
	if _, dup := schedRegistry.factories[name]; dup {
		panic(fmt.Sprintf("mptcp: scheduler %q registered twice", name))
	}
	schedRegistry.factories[name] = f
	schedRegistry.descs[name] = desc
}

// SchedulerInfo describes a registered scheduler for listings.
type SchedulerInfo struct {
	Name string
	Desc string
}

// Schedulers lists every registered scheduler with its description,
// sorted by name.
func Schedulers() []SchedulerInfo {
	schedRegistry.RLock()
	defer schedRegistry.RUnlock()
	out := make([]SchedulerInfo, 0, len(schedRegistry.factories))
	for _, n := range schedulerNamesLocked() {
		out = append(out, SchedulerInfo{Name: n, Desc: schedRegistry.descs[n]})
	}
	return out
}

// LookupScheduler returns the factory registered under name. The empty
// name resolves to the kernel default, lowest-rtt.
func LookupScheduler(name string) (SchedulerFactory, error) {
	if name == "" {
		name = "lowest-rtt"
	}
	schedRegistry.RLock()
	defer schedRegistry.RUnlock()
	f, ok := schedRegistry.factories[name]
	if !ok {
		return nil, fmt.Errorf("mptcp: unknown scheduler %q (registered: %s)",
			name, strings.Join(schedulerNamesLocked(), ", "))
	}
	return f, nil
}

// SchedulerNames lists every registered scheduler, sorted.
func SchedulerNames() []string {
	schedRegistry.RLock()
	defer schedRegistry.RUnlock()
	return schedulerNamesLocked()
}

func schedulerNamesLocked() []string {
	names := make([]string, 0, len(schedRegistry.factories))
	for n := range schedRegistry.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterSchedulerDesc("lowest-rtt",
		"kernel default: pick the established subflow with the lowest smoothed RTT",
		func(*rand.Rand) Scheduler { return LowestRTT{} })
	RegisterSchedulerDesc("round-robin",
		"classic alternative: rotate through the usable subflows",
		func(*rand.Rand) Scheduler { return &RoundRobin{} })
	RegisterSchedulerDesc("redundant",
		"latency-optimal bound: duplicate every segment on every usable subflow",
		func(*rand.Rand) Scheduler { return Redundant{} })
	RegisterSchedulerDesc("weighted-rtt",
		"probabilistic middle ground: weight subflow choice by inverse RTT",
		func(rng *rand.Rand) Scheduler { return &WeightedRTT{rng: rng} })
}
