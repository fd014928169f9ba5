package mptcp

import (
	"math/rand"

	"repro/internal/registry"
)

// SchedulerFactory builds a fresh per-connection scheduler. rng is the
// owning simulation's deterministic random source; randomized schedulers
// must draw from it (and only it) so runs stay reproducible per seed.
type SchedulerFactory func(rng *rand.Rand) Scheduler

// Schedulers is the packet-scheduler table: a scheduler registered here
// is available by name to endpoint configuration, the scenarios' "sched"
// parameter, sweep axes and listings (`mpexp list`); the committed
// scheduler sweeps (examples/manifests/schedsweep.json, fleetsweep.json)
// must list it, which a test checks.
var Schedulers = registry.New[SchedulerFactory]("mptcp", "scheduler")

// LookupScheduler returns the factory registered under name. The empty
// name resolves to the kernel default, lowest-rtt.
func LookupScheduler(name string) (SchedulerFactory, error) {
	if name == "" {
		name = "lowest-rtt"
	}
	return Schedulers.Lookup(name)
}

func init() {
	Schedulers.Register("lowest-rtt",
		"kernel default: pick the established subflow with the lowest smoothed RTT",
		func(*rand.Rand) Scheduler { return LowestRTT{} })
	Schedulers.Register("round-robin",
		"classic alternative: rotate through the usable subflows",
		func(*rand.Rand) Scheduler { return &RoundRobin{} })
	Schedulers.Register("redundant",
		"latency-optimal bound: duplicate every segment on every usable subflow",
		func(*rand.Rand) Scheduler { return Redundant{} })
	Schedulers.Register("weighted-rtt",
		"probabilistic middle ground: weight subflow choice by inverse RTT",
		func(rng *rand.Rand) Scheduler { return &WeightedRTT{rng: rng} })
}
