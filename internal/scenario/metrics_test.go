package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/stats"
)

// metricsTestSpec is a tiny two-path bulk spec for exercising the
// metrics wiring without the experiments package.
func metricsTestSpec(shards int) *Spec {
	p := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond}
	wl := &Bulk{Bytes: 64 << 10, CloseWhenDone: true}
	return &Spec{Name: "metrics-test", Runs: []*RunSpec{{
		Topology: TwoPath{P0: p, P1: p},
		Workload: wl,
		Shards:   shards,
		Settle:   time.Millisecond,
		Stop:     Stop{Horizon: 5 * time.Second, Poll: 50 * time.Millisecond, Until: wl.Done},
	}}}
}

// runMetered executes the spec with metrics exported to a file and
// returns the decoded snapshot.
func runMetered(t *testing.T, shards int) *metrics.Snapshot {
	t.Helper()
	file := filepath.Join(t.TempDir(), "metrics.json")
	sp := metricsTestSpec(shards)
	EnableMetrics(sp, file)
	Execute(sp, 1)
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func encode(t *testing.T, s *metrics.Snapshot) []byte {
	t.Helper()
	buf, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestMetricsRepeatedRunsCanonicalIdentical pins per-run determinism:
// the exported metrics.json of two identical runs is byte-identical once
// the wall-clock-tagged metrics are dropped (Canonical).
func TestMetricsRepeatedRunsCanonicalIdentical(t *testing.T) {
	a, b := runMetered(t, 1), runMetered(t, 1)
	if m := a.Get("pool_seg_gets"); m == nil || m.Value == 0 {
		t.Fatalf("metered run recorded no segment pool traffic: %v", a.Text())
	}
	if !bytes.Equal(encode(t, a.Canonical()), encode(t, b.Canonical())) {
		t.Fatalf("repeated runs diverged:\n--- a:\n%s--- b:\n%s",
			a.Canonical().Text(), b.Canonical().Text())
	}
}

// TestMetricsPortableAcrossShardCounts pins cross-layout determinism:
// after dropping wall-clock AND layout-tagged metrics (plus the
// per-shard breakdowns), the same seed exports identical snapshots at
// any shard count — sharding changes where work runs, never what the
// simulation does.
func TestMetricsPortableAcrossShardCounts(t *testing.T) {
	base := runMetered(t, 1)
	want := encode(t, base.Portable())
	for _, n := range []int{2, 8} {
		s := runMetered(t, n)
		if got := encode(t, s.Portable()); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d portable snapshot diverged from shards=1:\n--- 1:\n%s--- %d:\n%s",
				n, base.Portable().Text(), n, s.Portable().Text())
		}
		// The full snapshot still carries the per-shard breakdown.
		if m := s.Get("sim_events"); m == nil || len(m.Shards) != n {
			t.Fatalf("shards=%d: sim_events per-shard breakdown missing: %+v", n, m)
		}
	}
}

// TestMeteredRunMatchesUnmetered pins the observer property: the same
// seed with and without EnableMetrics writes the same result.json bytes
// and, once the metrics section is cut, the same report — the harvest at
// collect time never perturbs the simulation. The run is lossy, so the
// harvested tcp_* and mptcp_* metrics are not all zero.
func TestMeteredRunMatchesUnmetered(t *testing.T) {
	file := filepath.Join(t.TempDir(), "metrics.json")
	run := func(metered bool) *stats.Result {
		lossy := netem.LinkConfig{RateBps: 50e6, Delay: 5 * time.Millisecond, Loss: 0.02}
		clean := netem.LinkConfig{RateBps: 50e6, Delay: 15 * time.Millisecond}
		wl := &Bulk{Bytes: 2 << 20, CloseWhenDone: true}
		sp := &Spec{Name: "observer", Runs: []*RunSpec{{
			Topology: TwoPath{P0: lossy, P1: clean},
			Workload: wl,
			Settle:   time.Millisecond,
			Probes: []Probe{
				Scalar("done_s", func(rt *Run) float64 { return rt.Sim.Now().Seconds() }),
				Scalar("rcv_bytes", func(rt *Run) float64 { return float64(wl.Sink.Received) }),
			},
			Stop: Stop{Horizon: 30 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
		}}}
		if metered {
			EnableMetrics(sp, file)
		}
		return Execute(sp, 42)
	}
	plain, met := run(false), run(true)
	a, err := plain.Data().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := met.Data().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("metered result.json diverged:\n--- plain:\n%s--- metered:\n%s", a, b)
	}
	const head = "\n== Runtime metrics ==\n"
	i := strings.Index(met.Report, head)
	if i < 0 {
		t.Fatalf("metered report has no metrics section:\n%s", met.Report)
	}
	cut := met.Report[:i]
	if j := strings.Index(met.Report[i+len(head):], "\n== "); j >= 0 {
		cut += met.Report[i+len(head)+j:]
	}
	if cut != plain.Report {
		t.Fatalf("metered report diverged:\n--- plain:\n%s--- metered, metrics cut:\n%s", plain.Report, cut)
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcp_retrans_segs", "mptcp_sched_picks", "mptcp_reinject_bytes"} {
		if m := snap.Get(name); m == nil || m.Value == 0 {
			t.Fatalf("lossy metered run harvested no %s: %v", name, snap.Text())
		}
	}
}
