// Package metrics is the runtime's zero-allocation metrics registry:
// counters, gauges, and fixed-bucket histograms with one storage slot per
// world shard. Handles are acquired once at wiring time (get-or-create,
// idempotent) and record with a plain single-writer increment into the
// caller's shard slot — no atomics, no locks, no allocation — which is
// safe because everything owned by a shard runs on that shard's event
// loop. Reads (Snapshot) merge the slots: counters and histograms sum,
// gauges take the max.
//
// The protocol stack does not import this package: each layer counts in
// plain fields of its own, and a metered run harvests those into a
// registry when it ends (internal/scenario's metrics probe), so a run
// without metrics has no registry and no handle at all.
//
// Metrics carry tags that drive export policy (see snapshot.go):
//
//   - TagWall marks metrics that depend on the host rather than the run:
//     wall-clock values (barrier wait times) and pool misses, which
//     depend on what ran earlier in the process. They legitimately
//     differ between two identical runs, so diffs always skip them.
//   - TagLayout marks metrics that are deterministic at a fixed shard
//     count but depend on how the world was sharded (lookahead windows,
//     cross-shard sends). Same-shard-count diffs compare them exactly;
//     the cross-shard-count invariance check drops them (Portable).
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tags recognised by the export policy.
const (
	// TagWall marks a metric whose value depends on host wall-clock
	// speed or on what ran earlier in the process; diffs skip it.
	TagWall = "wall"
	// TagLayout marks a metric that is deterministic for a fixed shard
	// count but varies across shard counts.
	TagLayout = "layout"
)

// Kind discriminates metric behaviour.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// slot is one shard's storage cell, padded to a cache line so two shards
// incrementing adjacent slots never false-share.
type slot struct {
	v uint64
	_ [56]byte
}

// metric is the registry-side state of one named metric.
type metric struct {
	name    string
	kind    Kind
	tags    []string
	slots   []slot
	hist    [][]uint64 // per-slot buckets (histograms only)
	buckets int
}

// Registry holds a run's metrics, one storage slot per shard.
type Registry struct {
	nslots int

	mu      sync.Mutex
	metrics map[string]*metric
}

// New creates a registry with nslots per-shard storage slots (at least 1).
func New(nslots int) *Registry {
	if nslots < 1 {
		nslots = 1
	}
	return &Registry{nslots: nslots, metrics: make(map[string]*metric)}
}

// get returns the named metric, creating it on first use and verifying
// the kind on later lookups. Tags and bucket shape are fixed by the
// first caller.
func (r *Registry) get(name string, kind Kind, buckets int, tags []string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{
		name:    name,
		kind:    kind,
		tags:    append([]string(nil), tags...),
		slots:   make([]slot, r.nslots),
		buckets: buckets,
	}
	if kind == KindHistogram {
		m.hist = make([][]uint64, r.nslots)
		for i := range m.hist {
			m.hist[i] = make([]uint64, buckets)
		}
	}
	r.metrics[name] = m
	return m
}

func (r *Registry) slotCheck(slot int) int {
	if slot < 0 || slot >= r.nslots {
		panic(fmt.Sprintf("metrics: slot %d out of range [0,%d)", slot, r.nslots))
	}
	return slot
}

// Counter is a monotonically increasing count. Merge across slots: sum.
type Counter struct{ p *uint64 }

// Inc adds one.
func (c *Counter) Inc() { *c.p++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c.p += n }

// Counter returns the slot-th handle of the named counter, creating the
// metric on first use.
func (r *Registry) Counter(name string, slot int, tags ...string) *Counter {
	m := r.get(name, KindCounter, 0, tags)
	return &Counter{p: &m.slots[r.slotCheck(slot)].v}
}

// Gauge is a level that merges across slots by maximum — the natural
// semantics for high-water marks, the registry's main gauge use.
type Gauge struct{ p *uint64 }

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v uint64) { *g.p = max(*g.p, v) }

// Gauge returns the slot-th handle of the named gauge.
func (r *Registry) Gauge(name string, slot int, tags ...string) *Gauge {
	m := r.get(name, KindGauge, 0, tags)
	return &Gauge{p: &m.slots[r.slotCheck(slot)].v}
}

// Histogram is a fixed-bucket distribution. Values at or beyond the last
// bucket clamp into it. Merge across slots: per-bucket sum.
type Histogram struct{ b []uint64 }

// Observe records one value.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n observations of one value at once: what a harvest
// of a layer's own per-value counts adds.
func (h *Histogram) ObserveN(v, n uint64) { h.b[min(v, uint64(len(h.b)-1))] += n }

// HistogramLinear returns the slot-th handle of a linear histogram with
// the given bucket count: value v lands in bucket min(v, buckets-1).
// Right for small ordinal domains like per-subflow scheduler picks.
func (r *Registry) HistogramLinear(name string, buckets, slot int, tags ...string) *Histogram {
	if buckets < 1 {
		panic("metrics: histogram needs at least one bucket")
	}
	m := r.get(name, KindHistogram, buckets, tags)
	if m.buckets != buckets {
		panic(fmt.Sprintf("metrics: %s bucket shape mismatch", name))
	}
	return &Histogram{b: m.hist[r.slotCheck(slot)]}
}

// live is the most recently activated registry, for the process-wide
// introspection endpoint (see serve.go): smappd calls SetLive on each
// re-harvest of its world, and the endpoint snapshots whatever is live at
// scrape time.
var live atomic.Pointer[Registry]

// SetLive installs r as the process's live registry (nil clears it).
func SetLive(r *Registry) { live.Store(r) }

// Live reports the process's live registry (nil when none is active).
func Live() *Registry { return live.Load() }
