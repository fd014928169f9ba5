package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runCheck is the benchmark's own steadiness test: the timed sets run
// twice, every workload of every set in a fresh process — the way the
// benchmark driver runs them — and each end-to-end metric x workload pair
// of headline values must agree within the metric's bound, whichever of
// the two came first. It prints each pair and returns the process exit
// code. A workload whose process failed has nothing to compare: it is
// counted as failed and its rows are left out.
func runCheck(o options) int {
	var sets [2]map[string]setResult
	failed := map[string]bool{}
	for i := range sets {
		sets[i] = map[string]setResult{}
		for _, w := range o.workloads {
			progress("check: set %d, %s", i+1, w.Name)
			sr, err := freshProcess(w.Name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: fresh process for %s: %v\n", w.Name, err)
				failed[w.Name] = true
			}
			sets[i][w.Name] = sr
		}
	}

	fmt.Printf("%-10s %-16s %14s %14s %9s %6s\n", "workload", "metric", "set 1", "set 2", "apart", "bound")
	over := 0
	for _, w := range o.workloads {
		if failed[w.Name] {
			continue
		}
		for _, d := range endToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name].Value, sets[1][w.Name].Metrics[d.Name].Value
			mark := ""
			if !agree(a, b, d) {
				mark = "  EXCEEDS BOUND"
				over++
			}
			fmt.Printf("%-10s %-16s %14.6g %14.6g %8.2f%% %5.0f%%%s\n", w.Name, d.Name, a, b,
				100*apart(a, b, d.Better), 100*d.Bound, mark)
		}
	}
	fmt.Printf("\n%d pairs exceed their bound, %d workloads failed\n", over, len(failed))
	if over > 0 || len(failed) > 0 {
		return 1
	}
	return 0
}

// freshProcess measures one workload's timed set in a new process of this
// same binary, exactly as the driver does (-workload W -trace 0), and
// returns the set from that process's -out report.
//
// Sets of several workloads inside one process are not what the driver
// compares: the segment, packet, chunk and wire pools are process-global,
// so what ran before decides how many pool misses a workload pays (bulk
// allocates 6 % more objects as the second set of a process than as the
// first).
func freshProcess(workload string, o options) (setResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return setResult{}, err
	}
	// The report comes back through a pipe, the child's descriptor 3, so
	// nothing is left on disk.
	r, w, err := os.Pipe()
	if err != nil {
		return setResult{}, err
	}
	defer r.Close()
	cmd := exec.Command(exe, "-workload", workload, "-trace", "0", "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-iters", strconv.Itoa(o.iters), "-out", "/dev/fd/3")
	cmd.Stderr = os.Stderr // its progress; its tables are not ours to print
	cmd.ExtraFiles = []*os.File{w}
	err = cmd.Start()
	w.Close()
	if err != nil {
		return setResult{}, err
	}
	buf, _ := io.ReadAll(r) // a short read shows as a JSON error below
	runErr := cmd.Wait()
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		if runErr != nil {
			return setResult{}, runErr
		}
		return setResult{}, fmt.Errorf("report of the fresh process: %w", err)
	}
	sr := rep.EndToEnd[workload]
	if runErr == nil && sr.Failed > 0 {
		runErr = fmt.Errorf("%d of %d iterations failed", sr.Failed, sr.Attempted)
	}
	return sr, runErr
}
