package workspace

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// This file implements `mpexp diff`: comparing two run directories
// scalar-by-scalar (and per sweep cell) with a configurable relative
// tolerance. Two same-seed runs of a deterministic scenario must diff
// clean at tolerance 0 — that is the workspace's regression gate: any
// drift is either a code change or a determinism bug, and both deserve a
// nonzero exit.

// DiffOptions tune the comparison.
type DiffOptions struct {
	// RelTol is the relative tolerance: values a and b are equal when
	// |a-b| <= RelTol * max(|a|, |b|). Zero means exact equality — the
	// right default for same-seed determinism checks.
	RelTol float64
}

// wallKeys collects the scalar keys either side tagged as wall-clock
// (stats.Result.MarkWallClock → the "wall_clock" list in result.json /
// summary.json). Those measure host speed, not simulation output, so
// they legitimately differ between two identical runs and the diff
// skips them — host speed is the benchmark's business (bench/).
// The exclusion is tag-driven: emitters opt out explicitly rather than
// by a naming convention.
func wallKeys(lists ...[]string) map[string]bool {
	w := map[string]bool{}
	for _, keys := range lists {
		for _, k := range keys {
			w[k] = true
		}
	}
	return w
}

// DiffReport is the outcome of one comparison.
type DiffReport struct {
	// Lines describe every difference, in deterministic order.
	Lines []string
	// Compared counts the values examined (scalars, summary stats,
	// metrics) across both runs.
	Compared int
}

// Clean reports whether the two runs matched within tolerance.
func (d *DiffReport) Clean() bool { return len(d.Lines) == 0 }

func (d *DiffReport) addf(format string, args ...any) {
	d.Lines = append(d.Lines, fmt.Sprintf(format, args...))
}

// String renders the report: one line per difference, or the all-clear.
func (d *DiffReport) String() string {
	if d.Clean() {
		return fmt.Sprintf("identical within tolerance (%d values compared)\n", d.Compared)
	}
	return fmt.Sprintf("%d difference(s) over %d values:\n  %s\n",
		len(d.Lines), d.Compared, strings.Join(d.Lines, "\n  "))
}

// DiffRuns compares two run directories (as produced by Workspace.Run):
// their result.json or summary.json, and — for sweeps — every cell
// directory pairwise, flagging cells present on only one side.
func DiffRuns(dirA, dirB string, opt DiffOptions) (*DiffReport, error) {
	for _, dir := range []string{dirA, dirB} {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("workspace: %s is not a run directory", dir)
		}
	}
	d := &DiffReport{}
	if err := diffDir(d, dirA, dirB, "", opt); err != nil {
		return nil, err
	}
	cellsA, err := CellDirs(dirA)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	cellsB, err := CellDirs(dirB)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	for _, cell := range unionSorted(cellsA, cellsB) {
		inA, inB := contains(cellsA, cell), contains(cellsB, cell)
		if !inA || !inB {
			d.addf("cell %s: only in %s", cell, pick(inA, dirA, dirB))
			continue
		}
		prefix := "cell " + cell + ": "
		if err := diffDir(d, filepath.Join(dirA, cellsDir, cell),
			filepath.Join(dirB, cellsDir, cell), prefix, opt); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// diffDir compares one directory level: result.json against result.json,
// summary.json against summary.json, mixed shapes are themselves a
// difference (one run was single-seed, the other multi-seed).
func diffDir(d *DiffReport, dirA, dirB, prefix string, opt DiffOptions) error {
	resA, errA := loadResult(dirA)
	resB, errB := loadResult(dirB)
	sumA, serrA := loadSummary(dirA)
	sumB, serrB := loadSummary(dirB)
	for _, err := range []error{errA, errB, serrA, serrB} {
		if err != nil {
			return err
		}
	}
	switch {
	case resA != nil && resB != nil:
		diffResults(d, resA, resB, prefix, opt)
	case sumA != nil && sumB != nil:
		diffSummaries(d, sumA, sumB, prefix, opt)
	case resA == nil && resB == nil && sumA == nil && sumB == nil:
		// A sweep's top level has only report.txt — nothing numeric here.
	default:
		d.addf("%sresult shapes differ (%s vs %s)", prefix, shape(resA, sumA), shape(resB, sumB))
	}
	return diffMetrics(d, dirA, dirB, prefix, opt)
}

// diffMetrics compares the metrics snapshots of two run (or cell)
// directories metric-by-metric: metrics.json, and every metrics.json.<label>
// a multi-run spec writes (ctlstress's immediate/coalesced, fig3's
// kernel/userspace), each named in its lines. Metrics tagged wall-clock at
// record time (barrier waits, pool misses) are skipped — the tag travels
// in the file, so the exclusion needs no name list here. Everything else
// must match within tolerance: a deterministic scenario diffs clean at 0.
func diffMetrics(d *DiffReport, dirA, dirB, prefix string, opt DiffOptions) error {
	filesA, err := metricsFiles(dirA)
	if err != nil {
		return err
	}
	filesB, err := metricsFiles(dirB)
	if err != nil {
		return err
	}
	for _, file := range unionSorted(filesA, filesB) {
		inA, inB := contains(filesA, file), contains(filesB, file)
		if !inA || !inB {
			d.addf("%s%s: only in %s", prefix, file, pick(inA, "A", "B"))
			continue
		}
		ma, err := loadMetrics(dirA, file)
		if err != nil {
			return err
		}
		mb, err := loadMetrics(dirB, file)
		if err != nil {
			return err
		}
		where := prefix
		if file != MetricsFile {
			where += file + ": "
		}
		ca, cb := ma.Canonical(), mb.Canonical()
		for _, name := range unionMetricNames(ca, cb) {
			a, b := ca.Get(name), cb.Get(name)
			if a == nil || b == nil {
				d.addf("%smetric %s: only in %s", where, name, pick(a != nil, "A", "B"))
				continue
			}
			d.Compared++
			if !closeEnough(float64(a.Value), float64(b.Value), opt.RelTol) {
				d.addf("%smetric %s: %d -> %d (rel %.3g)", where, name,
					a.Value, b.Value, relDelta(float64(a.Value), float64(b.Value)))
			}
		}
	}
	return nil
}

// metricsFiles lists the metrics snapshots of one directory by file name.
func metricsFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), MetricsFile) {
			files = append(files, e.Name())
		}
	}
	return files, nil
}

func loadMetrics(dir, file string) (*metrics.Snapshot, error) {
	buf, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	s, err := metrics.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", filepath.Join(dir, file), err)
	}
	return s, nil
}

func unionMetricNames(a, b *metrics.Snapshot) []string {
	seen := map[string]bool{}
	for i := range a.Metrics {
		seen[a.Metrics[i].Name] = true
	}
	for i := range b.Metrics {
		seen[b.Metrics[i].Name] = true
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func shape(res *stats.ResultData, sum *stats.SummaryData) string {
	switch {
	case res != nil:
		return "result.json"
	case sum != nil:
		return "summary.json"
	}
	return "no result"
}

func loadResult(dir string) (*stats.ResultData, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ResultFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	d, err := stats.DecodeResult(buf)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", dir, err)
	}
	return d, nil
}

func loadSummary(dir string) (*stats.SummaryData, error) {
	buf, err := os.ReadFile(filepath.Join(dir, SummaryFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	d, err := stats.DecodeSummary(buf)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", dir, err)
	}
	return d, nil
}

// diffResults compares two single-seed results scalar key by scalar key.
// Samples and series are deliberately NOT value-compared — their headline
// statistics already surface as scalars — but a changed observation count
// is reported, since it means the runs took different paths.
func diffResults(d *DiffReport, a, b *stats.ResultData, prefix string, opt DiffOptions) {
	wall := wallKeys(a.Wall, b.Wall)
	for _, k := range unionKeys(a.Scalars, b.Scalars) {
		if wall[k] {
			continue
		}
		va, inA := a.Scalars[k]
		vb, inB := b.Scalars[k]
		if !inA || !inB {
			d.addf("%sscalar %s: only in %s", prefix, k, pick(inA, "A", "B"))
			continue
		}
		d.Compared++
		if !closeEnough(va, vb, opt.RelTol) {
			d.addf("%sscalar %s: %v -> %v (rel %.3g)", prefix, k, va, vb, relDelta(va, vb))
		}
	}
	for _, k := range unionKeys(a.Samples, b.Samples) {
		sa, inA := a.Samples[k]
		sb, inB := b.Samples[k]
		if !inA || !inB {
			d.addf("%ssample %s: only in %s", prefix, k, pick(inA, "A", "B"))
			continue
		}
		d.Compared++
		if len(sa) != len(sb) {
			d.addf("%ssample %s: %d observations -> %d", prefix, k, len(sa), len(sb))
		}
	}
}

// diffSummaries compares two multi-seed aggregates stat-by-stat.
func diffSummaries(d *DiffReport, a, b *stats.SummaryData, prefix string, opt DiffOptions) {
	if a.Seeds != b.Seeds {
		d.addf("%sseeds differ: %d vs %d", prefix, a.Seeds, b.Seeds)
	}
	if a.Failed != b.Failed {
		d.addf("%sfailed seeds differ: %d vs %d", prefix, a.Failed, b.Failed)
	}
	wall := wallKeys(a.Wall, b.Wall)
	for _, k := range unionKeys(a.Scalars, b.Scalars) {
		if wall[k] {
			continue
		}
		sa, inA := a.Scalars[k]
		sb, inB := b.Scalars[k]
		if !inA || !inB {
			d.addf("%sscalar %s: only in %s", prefix, k, pick(inA, "A", "B"))
			continue
		}
		for _, st := range []struct {
			name string
			a, b float64
		}{
			{"mean", sa.Mean, sb.Mean},
			{"median", sa.Median, sb.Median},
			{"p90", sa.P90, sb.P90},
			{"min", sa.Min, sb.Min},
			{"max", sa.Max, sb.Max},
		} {
			d.Compared++
			if !closeEnough(st.a, st.b, opt.RelTol) {
				d.addf("%sscalar %s %s: %v -> %v (rel %.3g)",
					prefix, k, st.name, st.a, st.b, relDelta(st.a, st.b))
			}
		}
	}
}

// closeEnough implements the relative-tolerance equality: exact when
// tol == 0, |a-b| <= tol*max(|a|,|b|) otherwise.
func closeEnough(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func relDelta(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unionSorted(a, b []string) []string {
	seen := map[string]bool{}
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func pick(inA bool, a, b string) string {
	if inA {
		return a
	}
	return b
}
