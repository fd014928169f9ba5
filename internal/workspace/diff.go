package workspace

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// (stats.Result.MarkWallClock → the "wall_clock" list in result.json).
// Those measure host speed, not simulation output, so they legitimately
// differ between two identical runs and the diff skips them — host speed
// is the benchmark's business (bench/).
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
	// Compared counts the values examined (scalars, samples, metrics)
	// across both runs.
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
// their result and metrics files, and — for sweeps — every cell
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
		inA, inB := slices.Contains(cellsA, cell), slices.Contains(cellsB, cell)
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

// diffDir compares one directory level: its result files (result.json,
// or one result.json.seed<N> per seed of a multi-seed run) and its
// metrics snapshots (metrics.json, and every metrics.json.<label> a
// multi-run spec writes — ctlstress's immediate/coalesced, fig3's
// kernel/userspace). A sweep's top level has neither.
func diffDir(d *DiffReport, dirA, dirB, prefix string, opt DiffOptions) error {
	err := diffFiles(d, dirA, dirB, prefix, ResultFile, loadResult,
		func(a, b *stats.ResultData, where string) { diffResults(d, a, b, where, opt) })
	if err != nil {
		return err
	}
	return diffFiles(d, dirA, dirB, prefix, MetricsFile, loadMetrics,
		func(a, b *metrics.Snapshot, where string) { diffSnapshots(d, a, b, where, opt) })
}

// diffFiles pairs the files of two directories named base or, by the
// scenario.PartFile rule, base.<part>: a file only one side has is a
// difference naming that side, and each pair is loaded and handed to cmp
// with the prefix its lines carry — the file's name, unless it is base.
func diffFiles[T any](d *DiffReport, dirA, dirB, prefix, base string,
	load func(path string) (T, error), cmp func(a, b T, where string)) error {
	filesA, err := filesNamed(dirA, base)
	if err != nil {
		return err
	}
	filesB, err := filesNamed(dirB, base)
	if err != nil {
		return err
	}
	for _, file := range unionSorted(filesA, filesB) {
		inA, inB := slices.Contains(filesA, file), slices.Contains(filesB, file)
		if !inA || !inB {
			d.addf("%s%s: only in %s", prefix, file, pick(inA, "A", "B"))
			continue
		}
		a, err := load(filepath.Join(dirA, file))
		if err != nil {
			return err
		}
		b, err := load(filepath.Join(dirB, file))
		if err != nil {
			return err
		}
		where := prefix
		if file != base {
			where += file + ": "
		}
		cmp(a, b, where)
	}
	return nil
}

// filesNamed lists the files of one directory named base or base.<part>.
func filesNamed(dir, base string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	var files []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && (n == base || strings.HasPrefix(n, base+".")) {
			files = append(files, n)
		}
	}
	return files, nil
}

// diffSnapshots compares two metrics snapshots metric by metric. Metrics
// tagged wall-clock at record time (barrier waits, pool misses) are
// skipped — the tag travels in the file, so the exclusion needs no name
// list here. Everything else must match within tolerance: a deterministic
// scenario diffs clean at 0.
func diffSnapshots(d *DiffReport, a, b *metrics.Snapshot, where string, opt DiffOptions) {
	ca, cb := a.Canonical(), b.Canonical()
	for _, name := range unionSorted(metricNames(ca), metricNames(cb)) {
		ma, mb := ca.Get(name), cb.Get(name)
		if ma == nil || mb == nil {
			d.addf("%smetric %s: only in %s", where, name, pick(ma != nil, "A", "B"))
			continue
		}
		d.Compared++
		if !closeEnough(float64(ma.Value), float64(mb.Value), opt.RelTol) {
			d.addf("%smetric %s: %d -> %d (rel %.3g)", where, name,
				ma.Value, mb.Value, relDelta(float64(ma.Value), float64(mb.Value)))
		}
	}
}

func metricNames(s *metrics.Snapshot) []string {
	names := make([]string, len(s.Metrics))
	for i := range s.Metrics {
		names[i] = s.Metrics[i].Name
	}
	return names
}

func loadMetrics(path string) (*metrics.Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	s, err := metrics.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", path, err)
	}
	return s, nil
}

func loadResult(path string) (*stats.ResultData, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	d, err := stats.DecodeResult(buf)
	if err != nil {
		return nil, fmt.Errorf("workspace: %s: %w", path, err)
	}
	return d, nil
}

// diffResults compares two results (one seed's each) scalar key by
// scalar key.
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

// unionKeys lists, sorted, the keys of either map.
func unionKeys[V any](a, b map[string]V) []string {
	return unionSorted(slices.Collect(maps.Keys(a)), slices.Collect(maps.Keys(b)))
}

// unionSorted lists, sorted and once each, the strings of either slice.
func unionSorted(a, b []string) []string {
	all := slices.Concat(a, b)
	slices.Sort(all)
	return slices.Compact(all)
}

func pick(inA bool, a, b string) string {
	if inA {
		return a
	}
	return b
}
