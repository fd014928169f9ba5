// Command footprint prices what a `fleet` device keeps resident: it runs
// the benchmark's fleet (1000 devices) twice to warm the process up, then
// once more, and at that run's last Collect, after a forced collection,
// prints the heap it holds over what the heap held before it, per device
// and per allocation site. Every allocation is profiled (MemProfileRate
// 1), so the sites sum to about the total. `make footprint` runs it.
//
// A site is the first frame of the allocating stack inside this module,
// with the function that called it; a map or slice grown by the runtime
// is charged to the code that grew it. What the command allocates itself
// is left out.
package main

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/scenario"
	"repro/internal/sim"
)

// params is the fleet the benchmark's fleet workload runs.
var params = map[string]string{"devices": "1000"}

func main() {
	runtime.MemProfileRate = 1
	var before, after []runtime.MemProfileRecord
	snaps := 0
	fp, err := measure(params, func() {
		if snaps++; snaps == 1 {
			before = memProfile()
		} else {
			after = memProfile()
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "footprint:", err)
		os.Exit(1)
	}
	report(os.Stdout, fp, bySite(after, before))
}

// footprint is what a measured run holds at its last Collect, over what
// the heap held before the run.
type footprint struct {
	devices        int
	bytes, objects int64
}

// measure builds and runs the fleet scenario under params three times, with
// seed 1, and measures the third run: a process's first run leaves about
// 3 KB a device that its second frees (at smoke size), so the base is read
// after two, in the steady state the benchmark measures in. at, when
// non-nil, runs after the forced collection before the measured run and
// after the one at its last Collect, and what it allocates is in neither
// reading.
func measure(params map[string]string, at func()) (footprint, error) {
	var fp footprint
	var base, ms runtime.MemStats
	for run := 0; ; run++ {
		warm := run < 2
		sp, err := scenario.Build("fleet", scenario.NewParams(params))
		if err != nil {
			return fp, err
		}
		if !warm {
			rs := sp.Runs[len(sp.Runs)-1]
			rs.Probes = append(rs.Probes, scenario.Probe{Name: "footprint", Collect: func(rt *scenario.Run) {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				if at != nil {
					at()
				}
				fp = footprint{
					devices: len(rt.Net.Clients),
					bytes:   int64(ms.HeapAlloc) - int64(base.HeapAlloc),
					objects: int64(ms.HeapObjects) - int64(base.HeapObjects),
				}
			}})
		}
		scenario.Execute(sp, 1)
		if !warm {
			return fp, nil
		}
		runtime.GC()
		if run == 1 && at != nil {
			at()
			runtime.GC()
		}
		runtime.ReadMemStats(&base)
	}
}

// memProfile returns every allocation site's record.
func memProfile() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// site is what one allocation site holds resident.
type site struct {
	name           string
	bytes, objects int64
}

// bySite folds the in-use bytes and objects of the records after, minus
// those of before, into sites, largest first.
func bySite(after, before []runtime.MemProfileRecord) []site {
	sum := map[string]*site{}
	add := func(recs []runtime.MemProfileRecord, sign int64) {
		for i := range recs {
			r := &recs[i]
			name := siteOf(r.Stack())
			if name == "" {
				continue
			}
			s := sum[name]
			if s == nil {
				s = &site{name: name}
				sum[name] = s
			}
			s.bytes += sign * r.InUseBytes()
			s.objects += sign * r.InUseObjects()
		}
	}
	add(after, 1)
	add(before, -1)
	out := make([]site, 0, len(sum))
	for _, s := range sum {
		if s.bytes != 0 || s.objects != 0 {
			out = append(out, *s)
		}
	}
	slices.SortFunc(out, func(a, b site) int {
		if c := cmp.Compare(b.bytes, a.bytes); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	return out
}

// self prefixes the symbols of this command's functions: "main." in the
// command, its import path in its test.
var self = strings.TrimSuffix(sim.FuncName(memProfile), "memProfile")

// siteOf names a stack by its first frame inside the module, as
// "func file:line ← caller", and an allocation of this command as "".
func siteOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, self) {
			return ""
		}
		if strings.HasPrefix(f.Function, "repro/") {
			name := fmt.Sprintf("%s %s:%d", short(f.Function), filepath.Base(f.File), f.Line)
			if c, _ := frames.Next(); c.Function != "" {
				name += " ← " + short(c.Function)
			}
			return name
		}
		if !more {
			return "(outside the module)"
		}
	}
}

func short(fn string) string { return strings.TrimPrefix(fn, "repro/internal/") }

// report prints the totals, then every site holding at least 8 bytes a
// device, and the rest summed.
func report(w io.Writer, fp footprint, sites []site) {
	per := func(n int64) float64 { return float64(n) / float64(fp.devices) }
	fmt.Fprintf(w, "fleet, %d devices, warm run: %.2f MB and %d objects resident at the last Collect\n",
		fp.devices, float64(fp.bytes)/(1<<20), fp.objects)
	fmt.Fprintf(w, "per device: %.0f bytes, %.1f objects\n\n", per(fp.bytes), per(fp.objects))
	fmt.Fprintf(w, "%10s %9s  %s\n", "bytes/dev", "objs/dev", "site")
	var restB, restO, totB int64
	for _, s := range sites {
		totB += s.bytes
		if per(s.bytes) < 8 && per(s.bytes) > -8 {
			restB += s.bytes
			restO += s.objects
			continue
		}
		fmt.Fprintf(w, "%10.1f %9.2f  %s\n", per(s.bytes), per(s.objects), s.name)
	}
	fmt.Fprintf(w, "%10.1f %9.2f  (every other site)\n", per(restB), per(restO))
	fmt.Fprintf(w, "%10.1f %9s  (sum over the sites)\n", per(totB), "")
}
