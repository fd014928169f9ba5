package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

// testSpecFactory registers a tiny parameterised scenario under a
// test-only name.
func testSpecFactory(p *Params) (*Spec, error) {
	bytes := p.Int("bytes", 64<<10, "bytes to transfer", 8<<10)
	sched := p.Sched()
	wl := &Bulk{Bytes: bytes}
	return &Spec{
		Name: "test-registry-bulk",
		Runs: []*RunSpec{{
			Label:    "bulk",
			Topology: Direct{Link: netem.LinkConfig{RateBps: 50e6, Delay: 2 * time.Millisecond}},
			Workload: wl,
			Sched:    sched,
			Settle:   time.Millisecond,
			Probes:   []Probe{Scalar("bytes", func(*Run) float64 { return float64(bytes) })},
			Stop:     Stop{Horizon: 10 * time.Second, Poll: 10 * time.Millisecond, Until: wl.Done},
		}},
	}, nil
}

func init() {
	Scenarios.Register("test-registry-bulk", "test-only bulk scenario", testSpecFactory)
}

func TestRegistryLookupAndNames(t *testing.T) {
	if _, err := Scenarios.Lookup("test-registry-bulk"); err != nil {
		t.Fatal(err)
	}
	if _, err := Scenarios.Lookup("nosuch"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown lookup error = %v", err)
	}
	found := false
	for _, in := range Scenarios.Infos() {
		if in.Name == "test-registry-bulk" && in.Desc != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("Scenarios.Infos() missing the registered entry or its description")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Scenarios.Register("test-registry-bulk", "", testSpecFactory) })
	mustPanic("empty name", func() { Scenarios.Register("", "", testSpecFactory) })
	mustPanic("nil factory", func() { Scenarios.Register("x", "", nil) })
}

func TestBuildRejectsBadParams(t *testing.T) {
	if _, err := Build("test-registry-bulk", NewParams(map[string]string{"bogus": "1"})); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("unknown param error = %v", err)
	}
	if _, err := Build("test-registry-bulk", NewParams(map[string]string{"bytes": "NaNa"})); err == nil {
		t.Fatal("expected parse error for bytes=NaNa")
	}
	if _, err := Build("test-registry-bulk", NewParams(map[string]string{"bytes": "1024"})); err != nil {
		t.Fatal(err)
	}
}

// A getter call is the parameter's one declaration: the listing is those
// calls replayed over a recording Params, and on a smoke run an absent key
// reads its smoke size while an explicit one keeps its value.
func TestParamDocsAndSmokeComeFromTheGetterCalls(t *testing.T) {
	own, common := ParamDocs("test-registry-bulk")
	want := []ParamDoc{
		{Key: "bytes", Type: "int", Default: "65536", Smoke: "8192", Desc: "bytes to transfer"},
		{Key: "sched", Type: "string", Default: "lowest-rtt", Desc: "registered packet scheduler"},
	}
	if !reflect.DeepEqual(own, want) {
		t.Errorf("own docs = %+v, want %+v", own, want)
	}
	var keys []string
	for _, d := range common {
		keys = append(keys, d.Key)
	}
	if got := strings.Join(keys, " "); got != "smoke trace trace_cap metrics shards" {
		t.Errorf("common keys = %q", got)
	}
	if own, common := ParamDocs("nosuch"); own != nil || common != nil {
		t.Errorf("unknown scenario lists %v / %v", own, common)
	}

	for _, tc := range []struct {
		sets []string
		want int
	}{
		{nil, 64 << 10},
		{[]string{"smoke"}, 8 << 10},
		{[]string{"smoke", "bytes=1024"}, 1024},
		{[]string{"smoke=false"}, 64 << 10},
	} {
		p, err := ParseSets(tc.sets)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Build("test-registry-bulk", p)
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Runs[0].Workload.(*Bulk).Bytes; got != tc.want {
			t.Errorf("%v: %d bytes, want %d", tc.sets, got, tc.want)
		}
		if p.docs != nil {
			t.Errorf("%v: a normal Build recorded docs", tc.sets)
		}
	}
}

func TestJobBuildsFreshSpecPerSeed(t *testing.T) {
	job := Job("test-registry-bulk", NewParams(map[string]string{"bytes": "32768"}))
	a := job(1)
	b := job(2)
	if a.Scalars["bytes"] != 32768 || b.Scalars["bytes"] != 32768 {
		t.Fatalf("params not applied: %v / %v", a.Scalars["bytes"], b.Scalars["bytes"])
	}
	if a.Report != job(1).Report {
		t.Fatal("same seed through Job diverged")
	}
}
