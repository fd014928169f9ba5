package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// Metric is one exported metric: the merged value, the per-shard
// breakdown (when the registry has more than one slot), and the merged
// histogram buckets.
type Metric struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"`
	Tags []string `json:"tags,omitempty"`
	// Value is the slot merge: sum for counters and histograms (total
	// observations), max for gauges.
	Value uint64 `json:"value"`
	// Shards is the per-slot breakdown, present when the registry has
	// more than one slot.
	Shards []uint64 `json:"shards,omitempty"`
	// Buckets are the merged histogram buckets.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Snapshot is a read-time merge of a registry, sorted by metric name.
// Its JSON encoding is deterministic, so two identical runs produce
// byte-identical snapshots once wall-clock-tagged metrics are dropped
// (Canonical).
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot merges the registry's slots into an exportable view. Slot
// values are read with atomic loads so a live endpoint scraping a
// running world never sees torn values; a between-runs snapshot (the
// metrics.json export) sees exact ones. The nil registry, what the live
// endpoint holds before SetLive, snapshots empty.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		out := Metric{Name: m.name, Kind: m.kind.String()}
		if len(m.tags) > 0 {
			out.Tags = append([]string(nil), m.tags...)
			sort.Strings(out.Tags)
		}
		per := make([]uint64, len(m.slots))
		for i := range m.slots {
			per[i] = atomic.LoadUint64(&m.slots[i].v)
		}
		switch m.kind {
		case KindGauge:
			for _, v := range per {
				if v > out.Value {
					out.Value = v
				}
			}
		case KindHistogram:
			out.Buckets = make([]uint64, m.buckets)
			for si := range m.hist {
				var total uint64
				for bi, c := range m.hist[si] {
					out.Buckets[bi] += c
					total += c
				}
				per[si] = total
			}
			for _, v := range per {
				out.Value += v
			}
		default:
			for _, v := range per {
				out.Value += v
			}
		}
		if len(per) > 1 {
			out.Shards = per
		}
		s.Metrics = append(s.Metrics, out)
	}
	return s
}

// Has reports whether the metric carries the tag.
func (m *Metric) Has(tag string) bool {
	for _, t := range m.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Get returns the named metric of the snapshot, or nil.
func (s *Snapshot) Get(name string) *Metric {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Canonical returns a copy without wall-clock-tagged metrics: the
// deterministic view, byte-identical across repeated runs of the same
// configuration (including the shard count).
func (s *Snapshot) Canonical() *Snapshot {
	return s.filter(func(m *Metric) *Metric {
		if m.Has(TagWall) {
			return nil
		}
		return m
	})
}

// Portable returns Canonical further stripped of layout-tagged metrics
// and per-shard breakdowns: the view that is byte-identical across
// shard counts, not just across repeated runs.
func (s *Snapshot) Portable() *Snapshot {
	return s.filter(func(m *Metric) *Metric {
		if m.Has(TagWall) || m.Has(TagLayout) {
			return nil
		}
		c := *m
		c.Shards = nil
		return &c
	})
}

func (s *Snapshot) filter(f func(*Metric) *Metric) *Snapshot {
	out := &Snapshot{}
	for i := range s.Metrics {
		if m := f(&s.Metrics[i]); m != nil {
			out.Metrics = append(out.Metrics, *m)
		}
	}
	return out
}

// Encode renders the snapshot as deterministic indented JSON with a
// trailing newline — the metrics.json format.
func (s *Snapshot) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// WriteFile writes the encoded snapshot to path — the metrics.json
// artifact a workspace run directory stores.
func (s *Snapshot) WriteFile(path string) error {
	buf, err := s.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// Decode parses a metrics.json artifact.
func Decode(buf []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := json.Unmarshal(buf, s); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return s, nil
}

// Text renders the snapshot as sorted aligned text, one metric per
// line: value, kind, name, tags, and the per-shard breakdown.
func (s *Snapshot) Text() string {
	var b strings.Builder
	width := 0
	for i := range s.Metrics {
		if n := len(s.Metrics[i].Name); n > width {
			width = n
		}
	}
	for i := range s.Metrics {
		m := &s.Metrics[i]
		fmt.Fprintf(&b, "%-*s %14d", width, m.Name, m.Value)
		if m.Kind != "counter" {
			fmt.Fprintf(&b, " (%s)", m.Kind)
		}
		if len(m.Tags) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(m.Tags, ","))
		}
		if len(m.Shards) > 1 {
			fmt.Fprintf(&b, " shards=%v", m.Shards)
		}
		if len(m.Buckets) > 0 {
			fmt.Fprintf(&b, " buckets=%v", m.Buckets)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
