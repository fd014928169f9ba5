package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/scenario"
)

// TestEveryClientStackIsWired holds the engine to building every client's
// stack with the run's metric handles and trace shard: on a metered,
// traced smoke run of each fan-out shape (and fig2a, the single-client
// one), every chunk any connection pushed — client stacks and server
// endpoints alike — is in the mptcp_sched_picks histogram, and every
// client host recorded into a shard of its own. A stack built without the
// wiring would push chunks the histogram never saw.
func TestEveryClientStackIsWired(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params map[string]string
	}{
		{"fig2a", nil},
		{"scale", map[string]string{"controllers": "kernel,fullmesh"}},
		{"fleet", nil},
		{"ctlstress", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := scenario.NewParams(tc.params)
			p.Set("smoke", "true")
			p.Set("metrics", "")
			p.Set("trace", "")
			sp, err := scenario.Build(tc.name, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, rs := range sp.Runs {
				// Closed connections leave their endpoint, so collect them
				// while they live: every one of these runs dials at ~1 ms
				// and transfers for well over 10 ms.
				conns := map[*mptcp.Connection]bool{}
				sample := func(rt *scenario.Run) {
					for _, st := range rt.Stacks {
						for _, c := range st.Endpoint.Conns() {
							conns[c] = true
						}
					}
					for _, ep := range rt.ServerEps {
						for _, c := range ep.Conns() {
							conns[c] = true
						}
					}
				}
				for at := 10 * time.Millisecond; at <= 500*time.Millisecond; at += 10 * time.Millisecond {
					rs.Events = append(rs.Events, scenario.Event{At: at, Name: "test.sample",
						Fn: func(rt *scenario.Run, _ scenario.EventArg) { sample(rt) }})
				}
				rs.Probes = append(rs.Probes, scenario.Probe{Name: "wired", Collect: func(rt *scenario.Run) {
					sample(rt)
					if len(rt.Stacks) != len(rt.Net.Clients) || rt.Stack != rt.Stacks[0] {
						t.Errorf("%s: %d stacks for %d clients", rs.Label, len(rt.Stacks), len(rt.Net.Clients))
					}
					if want := 2 * len(rt.Net.Clients); len(conns) < want {
						t.Errorf("%s: saw %d connections, want both ends of %d", rs.Label, len(conns), want/2)
					}
					var pushed, picks uint64
					for c := range conns {
						pushed += c.Stats().ChunksPushed
					}
					for _, m := range rt.Registry.Snapshot().Metrics {
						if m.Name == "mptcp_sched_picks" {
							picks = m.Value
						}
					}
					if pushed == 0 || picks != pushed {
						t.Errorf("%s: mptcp_sched_picks counted %d picks, connections pushed %d chunks", rs.Label, picks, pushed)
					}
					records := map[string]uint64{}
					for _, sh := range rt.Tracer.Snapshot().Shards {
						records[sh.Name] = sh.Records
					}
					for _, cl := range rt.Net.Clients {
						if records[cl.Host.Name()] == 0 {
							t.Errorf("%s: client host %s recorded nothing into a trace shard", rs.Label, cl.Host.Name())
						}
					}
				}})
			}
			scenario.Execute(sp, 1)
		})
	}
}

// TestDocumentedParamsMatchBuild checks the parameter docs against the
// factories, registry-wide: Build accepts every documented key (scenario
// docs and the common ones), and setting a key to its documented default
// declares the same runs as leaving it out — so a doc that drifts from the
// code's default fails here. Keys documented without a default are passed
// bare (the empty value every getter reads as "not given").
func TestDocumentedParamsMatchBuild(t *testing.T) {
	shape := func(sp *scenario.Spec) []string {
		out := []string{sp.Title, sp.Desc}
		for _, rs := range sp.Runs {
			out = append(out, rs.Label)
		}
		return out
	}
	for _, name := range scenario.Names() {
		base, err := scenario.Build(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs := append(scenario.ParamDocs(name), scenario.CommonParamDocs()...)
		if len(docs) <= len(scenario.CommonParamDocs()) {
			t.Errorf("%s documents no parameters of its own", name)
		}
		for _, d := range docs {
			sp, err := scenario.Build(name, scenario.NewParams(map[string]string{d.Key: d.Default}))
			if err != nil {
				t.Errorf("%s: documented %s=%q rejected: %v", name, d.Key, d.Default, err)
				continue
			}
			if d.Default != "" && !reflect.DeepEqual(shape(sp), shape(base)) {
				t.Errorf("%s: %s=%q (its documented default) declares\n%q, the real default\n%q",
					name, d.Key, d.Default, shape(sp), shape(base))
			}
		}
	}
}
