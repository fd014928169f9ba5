package metrics

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/testutil"
)

func TestCounterMergeAcrossSlots(t *testing.T) {
	r := New(3)
	a := r.Counter("events", 0)
	b := r.Counter("events", 2)
	a.Add(5)
	b.Inc()
	m := r.Snapshot().Get("events")
	if m == nil || m.Value != 6 {
		t.Fatalf("merged counter = %+v, want 6", m)
	}
	if len(m.Shards) != 3 || m.Shards[0] != 5 || m.Shards[1] != 0 || m.Shards[2] != 1 {
		t.Fatalf("per-shard breakdown = %v", m.Shards)
	}
}

func TestGaugeMergesByMax(t *testing.T) {
	r := New(2)
	r.Gauge("hw", 0).SetMax(10)
	r.Gauge("hw", 1).SetMax(4)
	g := r.Gauge("hw", 0)
	g.SetMax(7) // below current 10: no change
	if m := r.Snapshot().Get("hw"); m.Value != 10 {
		t.Fatalf("gauge merge = %d, want 10", m.Value)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(2)
	lin := r.HistogramLinear("picks", 4, 0)
	for _, v := range []uint64{0, 1, 1, 3, 99} { // 99 clamps into the last bucket
		lin.Observe(v)
	}
	r.HistogramLinear("picks", 4, 1).Observe(2)
	m := r.Snapshot().Get("picks")
	want := []uint64{1, 2, 1, 2}
	if m.Value != 6 {
		t.Fatalf("histogram total = %d, want 6", m.Value)
	}
	for i, w := range want {
		if m.Buckets[i] != w {
			t.Fatalf("buckets = %v, want %v", m.Buckets, want)
		}
	}
	if len(m.Shards) != 2 || m.Shards[0] != 5 || m.Shards[1] != 1 {
		t.Fatalf("histogram per-shard totals = %v", m.Shards)
	}

	// A bulk add is n observations of one value, clamped the same way.
	bulk := r.HistogramLinear("bulk", 4, 0)
	bulk.ObserveN(1, 5)
	bulk.ObserveN(9, 2) // clamped into bucket 3
	bm := r.Snapshot().Get("bulk")
	if bm.Value != 7 || bm.Buckets[1] != 5 || bm.Buckets[3] != 2 {
		t.Fatalf("bulk-added histogram = %+v", bm)
	}
}

func TestHandlesAreIdempotent(t *testing.T) {
	r := New(1)
	r.Counter("c", 0, TagWall).Inc()
	r.Counter("c", 0).Inc() // same metric; first caller's tags stick
	m := r.Snapshot().Get("c")
	if m.Value != 2 || !m.Has(TagWall) {
		t.Fatalf("idempotent get: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch must panic")
		}
	}()
	r.Gauge("c", 0)
}

func TestSnapshotDeterministicAndFiltered(t *testing.T) {
	build := func() *Registry {
		r := New(2)
		r.Counter("b_wall", 0, TagWall).Add(3)
		r.Counter("a_plain", 1).Add(1)
		r.Counter("c_layout", 0, TagLayout).Add(9)
		r.Gauge("d_hw", 1).SetMax(4)
		return r
	}
	e1, err := build().Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := build().Snapshot().Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatalf("snapshot encoding not deterministic:\n%s\nvs\n%s", e1, e2)
	}

	s := build().Snapshot()
	can := s.Canonical()
	if can.Get("b_wall") != nil {
		t.Fatalf("Canonical kept a wall metric")
	}
	if can.Get("c_layout") == nil || len(can.Get("c_layout").Shards) != 2 {
		t.Fatalf("Canonical must keep layout metrics and shard arrays: %+v", can)
	}
	port := s.Portable()
	if port.Get("c_layout") != nil || port.Get("b_wall") != nil {
		t.Fatalf("Portable kept a wall/layout metric")
	}
	if m := port.Get("a_plain"); m == nil || m.Shards != nil {
		t.Fatalf("Portable must drop per-shard arrays: %+v", m)
	}

	dec, err := Decode(e1)
	if err != nil {
		t.Fatal(err)
	}
	re, _ := dec.Encode()
	if !bytes.Equal(e1, re) {
		t.Fatalf("decode/encode round trip drifted")
	}
}

func TestTextRendering(t *testing.T) {
	r := New(1)
	r.Counter("zz", 0).Add(2)
	r.Gauge("aa", 0, TagWall).SetMax(7)
	txt := r.Snapshot().Text()
	if !strings.Contains(txt, "aa") || !strings.Contains(txt, "zz") {
		t.Fatalf("text rendering missing metrics:\n%s", txt)
	}
	if strings.Index(txt, "aa") > strings.Index(txt, "zz") {
		t.Fatalf("text rendering not sorted:\n%s", txt)
	}
	if !strings.Contains(txt, "(gauge)") || !strings.Contains(txt, "[wall]") {
		t.Fatalf("text rendering missing kind/tags:\n%s", txt)
	}
}

func TestServeEndpoint(t *testing.T) {
	r := New(2)
	r.Counter("sim_events", 0).Add(11)
	r.Counter("sim_events", 1).Add(4)
	r.HistogramLinear("picks", 3, 0).Observe(1)
	SetLive(r)
	defer SetLive(nil)
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf, _ := io.ReadAll(resp.Body)
		return string(buf)
	}
	prom := get("/metrics")
	if !strings.Contains(prom, "sim_events 15") || !strings.Contains(prom, `sim_events_shard{shard="0"} 11`) {
		t.Fatalf("prom exposition:\n%s", prom)
	}
	if !strings.Contains(prom, "picks_count 1") {
		t.Fatalf("prom histogram:\n%s", prom)
	}
	if !strings.Contains(get("/metrics.txt"), "sim_events") {
		t.Fatalf("text endpoint missing metrics")
	}
	if !strings.Contains(get("/debug/vars"), `"metrics"`) {
		t.Fatalf("expvar endpoint missing the metrics variable")
	}
}

func TestRecordingDoesNotAllocate(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under -race")
	}
	r := New(4)
	c := r.Counter("c", 3)
	g := r.Gauge("g", 1)
	h := r.HistogramLinear("h", 8, 2)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.SetMax(9)
		h.Observe(5)
		h.ObserveN(1<<20, 3)
	}); n != 0 {
		t.Fatalf("recording allocates %v per run, want 0", n)
	}
}
