package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	if got, want := quartiles([]float64{4, 1, 3, 2, 5}), [3]float64{2, 3, 4}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{1, 2}), [3]float64{1.25, 1.5, 1.75}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.25}
	ref := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01}
	scale := func(f float64) []float64 {
		out := make([]float64, len(ref))
		for i, v := range ref {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		def     metricDef
		head    []float64
		won     int
		verdict string
	}{
		{"halved", lower, scale(0.5), 10, "better"},
		{"same", lower, ref, 0, "within the bound"},
		{"half again slower", lower, scale(1.5), 0, "WORSE than the bound"},
		{"higher is better", metricDef{Better: "higher", Bound: 0.25}, scale(2), 10, "better"},
		// Nine of ten pairs won but the medians are closer than the
		// reference's own quartiles: not a gain.
		{"inside the spread", lower, []float64{0.999, 1.019, 0.979, 1.009, 0.989, 0.999, 1.029, 0.969, 0.999, 1.02}, 9, "within the bound"},
	} {
		r := summarize(tc.def, ref, tc.head)
		if r.won != tc.won || r.verdict != tc.verdict {
			t.Errorf("%s: won %d verdict %q, want %d %q", tc.name, r.won, r.verdict, tc.won, tc.verdict)
		}
	}
	noisy := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	if r := summarize(lower, noisy, noisy); !strings.HasPrefix(r.verdict, "unresolved") {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", r.verdict)
	}
}

// TestRunAlternatesAndReports drives run with two stand-in binaries that
// print a result line, and checks the table and the run order.
func TestRunAlternatesAndReports(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "order.log")
	fake := func(name string, wall float64) string {
		path := filepath.Join(dir, name)
		script := fmt.Sprintf("#!/bin/sh\necho %s \"$2\" >> %s\necho progress\n"+
			`echo '{"correct":true,"attempted":4,"failed":0,"metrics":{"wall_s":{"value":%g,"unit":"s"}}}'`+"\n", name, log, wall)
		if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mf := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(mf, []byte(`{"run_seconds": 1,
		"workloads": [{"name": "ecmp"}],
		"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := benchpair([]string{"-ref", fake("ref", 1.0), "-head", fake("head", 0.4), "-pairs", "2"}, &out, &errOut, mf); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	order, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(order), "ref ecmp\nhead ecmp\nhead ecmp\nref ecmp\n"; got != want {
		t.Fatalf("run order:\n%s\nwant:\n%s", got, want)
	}
	for _, want := range []string{"ecmp: 2 pairs", "ref 0 of 8", "wall_s", "0.400", "2/2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestWorkloadsFlag checks -workloads against the repository's own
// BENCHMARK.json: the default pairs every declared workload, a list pairs
// those named in its order, and a name the benchmark does not declare
// exits 2 before anything runs.
func TestWorkloadsFlag(t *testing.T) {
	m, err := loadManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	all, err := m.selectWorkloads("")
	if err != nil || !slices.Equal(all, []string{"bulk", "churn", "ecmp", "fleet"}) {
		t.Fatalf("default workloads %v (%v), want all four BENCHMARK.json declares", all, err)
	}
	if got, err := m.selectWorkloads("churn,bulk"); err != nil || !slices.Equal(got, []string{"churn", "bulk"}) {
		t.Fatalf("-workloads churn,bulk selects %v (%v)", got, err)
	}
	var out, errOut bytes.Buffer
	args := []string{"-ref", "/nonexistent/ref", "-head", "/nonexistent/head", "-workloads", "churn,nope"}
	if code := benchpair(args, &out, &errOut, "../../BENCHMARK.json"); code != 2 || !strings.Contains(errOut.String(), `"nope"`) {
		t.Fatalf("unknown workload: exit %d, stderr %q; want 2 naming it", code, errOut.String())
	}
	if code := benchpair([]string{"-head", "x"}, &out, &errOut, "../../BENCHMARK.json"); code != 2 {
		t.Fatalf("missing -ref: exit %d, want 2", code)
	}
}
