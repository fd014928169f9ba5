package metrics

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// This file is the live introspection endpoint: the process's active
// registry (SetLive) exported as an expvar variable, a Prometheus text
// page, and the stock pprof handlers — so a long smappd run can be
// profiled and scraped in flight. Scrapes during a running
// sharded world are best-effort reads of single-writer slots (atomic
// loads of plainly written values): monotone counters may lag a scrape
// by an increment, which is fine for observability.

var publishOnce sync.Once

// Publish registers the live registry's snapshot under the expvar name
// "metrics", visible at /debug/vars alongside memstats. Idempotent.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("metrics", expvar.Func(func() any {
			return Live().Snapshot()
		}))
	})
}

// Handler returns the endpoint mux:
//
//	/metrics     Prometheus text exposition of the live registry
//	/metrics.txt sorted plain-text rendering (Snapshot.Text)
//	/debug/vars  expvar JSON (includes the "metrics" variable)
//	/debug/pprof the stock runtime profiles
func Handler() http.Handler {
	Publish()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeProm(w, Live().Snapshot())
	})
	mux.HandleFunc("/metrics.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, Live().Snapshot().Text())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the endpoint on addr in a background goroutine and
// returns the bound address (useful with a ":0" addr). The listener
// stays up for the life of the process.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// writeProm renders the snapshot in the Prometheus text exposition
// format: merged value per metric, per-shard breakdown as a labelled
// family, histogram buckets as cumulative counts.
func writeProm(w http.ResponseWriter, s *Snapshot) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		name := promName(m.Name)
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum uint64
			for bi, c := range m.Buckets {
				cum += c
				le := fmt.Sprintf("%d", bi)
				if bi == len(m.Buckets)-1 {
					le = "+Inf"
				}
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
			}
			fmt.Fprintf(w, "%s_count %d\n", name, m.Value)
		default:
			fmt.Fprintf(w, "# TYPE %s %s\n", name, m.Kind)
			fmt.Fprintf(w, "%s %d\n", name, m.Value)
			if len(m.Shards) > 1 {
				for si, v := range m.Shards {
					fmt.Fprintf(w, "%s_shard{shard=\"%d\"} %d\n", name, si, v)
				}
			}
		}
	}
}

func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}
