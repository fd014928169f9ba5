// Command benchpair compares two builds of the repository's benchmark the
// way a performance claim has to be shown: it alternates the two binaries
// per workload with tracing off, pair after pair, and prints for every
// end-to-end metric each side's median and quartiles, how many pairs the
// candidate won, and the reference's own interquartile range — the spread
// a real difference has to exceed. `make bench-pair REF=<commit>` builds
// the two binaries and runs it.
//
//	benchpair -ref /tmp/bench-ref -head /tmp/bench-head -pairs 10 [-workloads churn,bulk]
//
// Workloads, metrics, their direction and their regression bounds are read
// from BENCHMARK.json in the current directory, so the comparison is over
// exactly what the benchmark declares. -workloads pairs a subset (a claim's
// workload and the ones it must not move) in a fraction of the time; a
// name the benchmark does not declare exits 2.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a single-workload `bench -trace 0` run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() { os.Exit(benchpair(os.Args[1:], os.Stdout, os.Stderr, "BENCHMARK.json")) }

// benchpair runs the command and returns its exit status: 2 for a usage
// error, 1 when a run fails.
func benchpair(args []string, stdout, stderr io.Writer, mfPath string) int {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ref       = fs.String("ref", "", "benchmark binary built at the reference commit")
		head      = fs.String("head", "", "benchmark binary built from the change")
		pairs     = fs.Int("pairs", 10, "pairs of runs per workload")
		workloads = fs.String("workloads", "", "comma-separated workloads to pair (default: every workload in BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil || *ref == "" || *head == "" || *pairs < 1 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	m, err := loadManifest(mfPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	names, err := m.selectWorkloads(*workloads)
	if err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 2
	}
	if err := run(stdout, stderr, *ref, *head, *pairs, m, names); err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	return 0
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	buf, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// selectWorkloads resolves -workloads: every declared workload when list
// is empty, otherwise the named ones in the order given, each of which
// the manifest must declare.
func (m manifest) selectWorkloads(list string) ([]string, error) {
	var all []string
	for _, wl := range m.Workloads {
		all = append(all, wl.Name)
	}
	if list == "" {
		return all, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", n, strings.Join(all, ", "))
		}
	}
	return names, nil
}

func run(stdout, stderr io.Writer, ref, head string, pairs int, m manifest, workloads []string) error {
	for _, w := range workloads {
		var refRuns, headRuns []result
		for i := 0; i < pairs; i++ {
			// Alternate which side runs first, so drift of the shared box
			// within a pair favours neither.
			order := []string{ref, head}
			if i%2 == 1 {
				order = []string{head, ref}
			}
			for _, bin := range order {
				r, err := runOnce(bin, w, m.RunSeconds, int64(i+1))
				if err != nil {
					return fmt.Errorf("%s on %s, pair %d: %w", bin, w, i+1, err)
				}
				if bin == head {
					headRuns = append(headRuns, r)
				} else {
					refRuns = append(refRuns, r)
				}
				fmt.Fprintf(stderr, "%s pair %d/%d: %s done\n", w, i+1, pairs, bin)
			}
		}
		printWorkload(stdout, w, m.EndToEnd, refRuns, headRuns)
	}
	return nil
}

// runOnce is one timed set in a process of its own, the form the
// benchmark driver runs: one workload, tracing off.
func runOnce(bin, workload string, seconds float64, seed int64) (result, error) {
	cmd := exec.Command(bin, "-workload", workload, "-trace", "0",
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-seed", strconv.FormatInt(seed, 10))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return r, fmt.Errorf("%w: %s", runErr, strings.TrimSpace(errb.String()))
		}
		return r, fmt.Errorf("no result line: %w", err)
	}
	// A non-zero exit with a result line is a run with failed iterations;
	// the line carries the count.
	return r, nil
}

// row is one metric's comparison over all pairs of one workload.
type row struct {
	ref, head [3]float64 // first quartile, median, third quartile
	won       int        // pairs the head read better; ties count for neither
	verdict   string
}

func summarize(d metricDef, ref, head []float64) row {
	var r row
	r.ref, r.head = quartiles(ref), quartiles(head)
	// cost turns a reading into lower-is-better.
	cost := func(v float64) float64 {
		if d.Better == "higher" {
			return -v
		}
		return v
	}
	worstHead, bestRef := cost(head[0]), cost(ref[0])
	for i := range ref {
		if cost(head[i]) < cost(ref[i]) {
			r.won++
		}
		worstHead, bestRef = max(worstHead, cost(head[i])), min(bestRef, cost(ref[i]))
	}
	worse := cost(r.head[1]) - cost(r.ref[1]) // > 0: the head's median is worse
	iqr := r.ref[2] - r.ref[0]
	bound := d.Bound * math.Abs(r.ref[1])
	switch {
	case worse < 0 && 10*r.won >= 9*len(ref) && -worse > iqr:
		r.verdict = "better"
	case worse > bound:
		r.verdict = "WORSE than the bound"
	case iqr > bound && worstHead >= bestRef:
		r.verdict = "unresolved: spread exceeds the bound"
	default:
		r.verdict = "within the bound"
	}
	return r
}

func printWorkload(w io.Writer, workload string, defs []metricDef, refRuns, headRuns []result) {
	attempted := func(rs []result) (a, f int) {
		for _, r := range rs {
			a += r.Attempted
			f += r.Failed
		}
		return
	}
	ra, rf := attempted(refRuns)
	ha, hf := attempted(headRuns)
	fmt.Fprintf(w, "\n%s: %d pairs; iterations failed: ref %d of %d, head %d of %d\n", workload, len(refRuns), rf, ra, hf, ha)
	fmt.Fprintf(w, "  %-16s %-5s %34s %34s %7s %5s %11s  %s\n",
		"metric", "unit", "ref median [q1, q3]", "head median [q1, q3]", "head/ref", "won", "ref IQR", "verdict")
	for _, d := range defs {
		col := func(rs []result) []float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = r.Metrics[d.Name].Value
			}
			return vs
		}
		r := summarize(d, col(refRuns), col(headRuns))
		ratio := "-"
		if r.ref[1] != 0 {
			ratio = fmt.Sprintf("%.3f", r.head[1]/r.ref[1])
		}
		fmt.Fprintf(w, "  %-16s %-5s %34s %34s %7s %2d/%-2d %11.4g  %s\n", d.Name, d.Unit,
			fmtQ(r.ref), fmtQ(r.head), ratio, r.won, len(refRuns), r.ref[2]-r.ref[0], r.verdict)
	}
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

// quartiles returns the first quartile, median and third quartile of vs,
// interpolating linearly between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
