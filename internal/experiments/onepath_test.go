package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mptcp"
	"repro/internal/scenario"
)

// TestEveryClientStackIsWired holds the engine to building every client's
// stack with the run's trace shard, and the metrics harvest to reading
// every endpoint: on a metered, traced smoke run of each fan-out shape
// (and fig2a, the single-client one), every chunk any connection pushed —
// client stacks and server endpoints alike — is in the mptcp_sched_picks
// histogram, and every client host recorded into a shard of its own. An
// endpoint the harvest skipped would push chunks the histogram never saw.
func TestEveryClientStackIsWired(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy string // "" = the scenario's own
	}{
		{"fig2a", ""},
		{"scale", ""}, // the in-kernel path manager
		{"scale", "fullmesh"},
		{"fleet", ""},
		{"ctlstress", ""},
	} {
		t.Run(strings.TrimSuffix(tc.name+"/"+tc.policy, "/"), func(t *testing.T) {
			p := scenario.NewParams(map[string]string{"smoke": "true"})
			if tc.policy != "" {
				p.Set("policy", tc.policy)
			}
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

// TestExplicitValueBeatsSmoke holds every scenario to the one precedence
// rule: a key given explicitly keeps its value on a smoke run. For every
// key that declares a smoke size, `smoke` plus that key at its full-size
// default declares what `smoke` alone does with that one value restored —
// not the smoke run unchanged (the value was overwritten), and the same as
// spelling every other smoke size out by hand.
func TestExplicitValueBeatsSmoke(t *testing.T) {
	// shape is what a spec declares, as far as sizes show in it.
	shape := func(name string, vals map[string]string) string {
		t.Helper()
		vals["smoke"] = "true"
		sp, err := scenario.Build(name, scenario.NewParams(vals))
		if err != nil {
			t.Fatalf("%s %v: %v", name, vals, err)
		}
		out := []string{sp.Title, sp.Desc}
		for _, rs := range sp.Runs {
			out = append(out, fmt.Sprintf("%s: %+v, %+v, %d events (first at %v), stop %v",
				rs.Label, rs.Topology, rs.Workload, len(rs.Events), append(rs.Events, scenario.Event{})[0].At, rs.Stop.Horizon))
		}
		return strings.Join(out, "\n")
	}
	for _, name := range scenario.Scenarios.Names() {
		own, _ := scenario.ParamDocs(name)
		sized := 0
		for _, d := range own {
			if d.Smoke == "" {
				continue
			}
			sized++
			smoke := shape(name, map[string]string{})
			got := shape(name, map[string]string{d.Key: d.Default})
			if got == smoke {
				t.Errorf("%s: smoke with %s=%s declares the plain smoke run: the explicit value lost\n%s", name, d.Key, d.Default, got)
			}
			spelled := map[string]string{}
			for _, o := range own {
				if o.Smoke != "" {
					spelled[o.Key] = o.Smoke
				}
			}
			spelled[d.Key] = d.Default
			if want := shape(name, spelled); got != want {
				t.Errorf("%s: smoke with %s=%s declares\n%s\nwant only that value restored:\n%s", name, d.Key, d.Default, got, want)
			}
		}
		if sized == 0 {
			t.Errorf("%s declares no smoke size", name)
		}
	}
}
