package scenario

import (
	"sort"
	"strings"

	"repro/internal/trace"
)

// TraceSpec turns on event tracing for one run: the engine builds a
// trace.Tracer, gives every host its own shard (the fabric shares
// "net"), and wires every client stack, every server endpoint, and every
// named link into it. File, when non-empty, is where the run's binary
// trace lands; Cap bounds each shard's ring (0 = trace.DefaultShardCap).
type TraceSpec struct {
	File string
	Cap  int
}

// EnableTrace arms tracing on every run of a spec and appends the trace
// probe that folds the analysis summaries into the Result and writes
// the trace file. Multi-run specs write one file per run, suffixed with
// the run's label; file "" records and analyses without writing a file.
// Build calls this for the `trace=`/`trace_cap=` parameters every
// registered scenario accepts, so any scenario (and any sweep cell) can
// produce forensic output without per-scenario wiring.
func EnableTrace(sp *Spec, file string, cap int) {
	multi := len(sp.Runs) > 1
	for _, rs := range sp.Runs {
		f := file
		prefix := "trace_"
		if multi && rs.Label != "" {
			if f != "" {
				f += "." + sanitizeLabel(rs.Label)
			}
			prefix = sanitizeLabel(rs.Label) + "_trace_"
		}
		rs.Trace = &TraceSpec{File: f, Cap: cap}
		rs.Probes = append(rs.Probes, traceProbe(f, prefix))
	}
}

// sanitizeLabel makes a run label safe as a filename suffix.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, label)
}

// traceProbe is the Trace probe kind: Collect snapshots the run's
// tracer, folds the mptcptrace-style summaries (byte split, reinjection
// and duplicate accounting, handover gaps, pooled RTT distribution)
// into the Result as scalars and samples — never into the Report text,
// so traced reports stay byte-identical to untraced goldens — and
// writes the binary trace file for `mpexp report`.
func traceProbe(file, prefix string) Probe {
	return Probe{
		Name: "trace",
		Collect: func(rt *Run) {
			if rt.Tracer == nil {
				return
			}
			data := rt.Tracer.Snapshot()
			trace.Analyze(data).FoldInto(rt.Result, prefix)
			if file != "" {
				if err := data.WriteFile(file); err != nil {
					panic(err) // the runner reports this as the seed's failure
				}
			}
		},
	}
}

// wireTrace attaches the run's freshly built topology to the tracer:
// every named link's two directions record into the shared "net" shard,
// in sorted name order so entity ids are deterministic.
func (rt *Run) wireTrace() {
	tr := rt.Tracer
	if tr == nil {
		return
	}
	sh := tr.Shard("net")
	names := make([]string, 0, len(rt.Net.Links))
	for name := range rt.Net.Links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := rt.Net.Links[name]
		d.AB.SetTrace(sh, tr.Register(trace.EntLink, 0, d.AB.Name()))
		d.BA.SetTrace(sh, tr.Register(trace.EntLink, 0, d.BA.Name()))
	}
}
