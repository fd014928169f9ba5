package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Params carries the string key=value knobs a scenario factory reads —
// the wire format of `mpexp run <scenario> -set key=val` and of sweep
// axes. A typed getter call is the parameter's one declaration: its key,
// its type (the getter), its default, its doc string and, where the
// scenario runs smaller under `smoke`, its smoke size:
//
//	conns := p.Int("conns", 16, "concurrent connections, one client host each", 4)
//
// The getters record which keys were consumed and which values failed to
// parse, so Build can reject typos ("unknown parameter") and bad values
// with one error instead of silently ignoring them. A key given
// explicitly always wins; an absent key reads its smoke size on a smoke
// run and its default otherwise. Listings (ParamDocs) are the same calls
// seen by a recording Params, so they cannot drift from what Build reads.
type Params struct {
	vals map[string]string
	used map[string]bool
	err  error

	// smoke is the `smoke` key, resolved once by Build before the factory
	// runs (Smoke).
	smoke bool
	// docs, non-nil on the listing path only, collects the getters'
	// declarations: own while the factory runs, common otherwise.
	docs *paramDocs
	own  bool
}

// ParamDoc is one parameter as its getter call declares it, for listings
// (`mpexp list` prints them under the scenario) and for authoring
// manifests against the live registry (`mpexp list -json`). Type names
// the getter ("int", "float", "bool", "string", "duration", "list");
// Default and Smoke are the values an absent key reads, in the syntax the
// key accepts (Smoke is empty when smoke runs keep the default).
type ParamDoc struct {
	Key     string `json:"key"`
	Type    string `json:"type"`
	Default string `json:"default,omitempty"`
	Smoke   string `json:"smoke,omitempty"`
	Desc    string `json:"doc"`
}

type paramDocs struct{ own, common []ParamDoc }

// NewParams wraps a key=value map (nil = empty).
func NewParams(vals map[string]string) *Params {
	p := &Params{vals: make(map[string]string, len(vals)), used: make(map[string]bool)}
	for k, v := range vals {
		p.vals[k] = v
	}
	return p
}

// ParseSets builds Params from "key=value" strings. A bare "key" (no
// '=') stores the empty value, which Bool treats as true — so boolean
// knobs can be set flag-style (`-set baseline`); a mistyped bare key is
// still caught by the unused-key check in Build.
func ParseSets(kvs []string) (*Params, error) {
	p := NewParams(nil)
	for _, kv := range kvs {
		k, v, _ := strings.Cut(kv, "=")
		if k == "" {
			return nil, fmt.Errorf("scenario: malformed parameter %q (want key=value)", kv)
		}
		p.vals[k] = v
	}
	return p, nil
}

// Set stores one value.
func (p *Params) Set(key, val string) { p.vals[key] = val }

// Map returns a copy of the stored key=value pairs — the resolved
// parameter set a workspace records in its manifest snapshot.
func (p *Params) Map() map[string]string {
	if p == nil {
		return nil
	}
	out := make(map[string]string, len(p.vals))
	for k, v := range p.vals {
		out[k] = v
	}
	return out
}

// Clone copies the values into a fresh Params with clean bookkeeping, so
// concurrent per-seed factory calls never share state.
func (p *Params) Clone() *Params {
	if p == nil {
		return NewParams(nil)
	}
	return NewParams(p.vals)
}

func (p *Params) lookup(key string) (string, bool) {
	p.used[key] = true
	v, ok := p.vals[key]
	return v, ok
}

func (p *Params) fail(key, val string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: %v", key, val, err)
	}
}

// Has reports whether the key was set at all (marking it consumed), for
// knobs where a bare `-set key` and `key=value` both mean "on" but the
// empty value is meaningful (the trace parameter: bare = record without
// writing a file).
func (p *Params) Has(key string) bool {
	_, ok := p.lookup(key)
	return ok
}

// Smoke reports whether this is a smoke run: the one reading of the
// `smoke` key, made by Build. The getters apply it to the parameters that
// declare a smoke size; a factory asks only for a size that is not a
// parameter.
func (p *Params) Smoke() bool { return p.smoke }

// param is every typed getter: declare the parameter on the listing path,
// then resolve it — the explicit value, else the smoke size (when the
// getter was given one) on a smoke run, else the default.
func param[T any](p *Params, key, typ string, def T, doc string, smoke T, sized bool,
	parse func(string) (T, error), format func(T) string) T {
	if p.docs != nil {
		d := ParamDoc{Key: key, Type: typ, Default: format(def), Desc: doc}
		if sized {
			d.Smoke = format(smoke)
		}
		if p.own {
			p.docs.own = append(p.docs.own, d)
		} else {
			p.docs.common = append(p.docs.common, d)
		}
	}
	v, ok := p.lookup(key)
	if !ok {
		if p.smoke && sized {
			return smoke
		}
		return def
	}
	x, err := parse(v)
	if err != nil {
		p.fail(key, v, err)
		return def
	}
	return x
}

// smokeSize unpacks a getter's optional trailing smoke size. It is apart
// from param so that it inlines into the factory with its getter: the
// variadic slice then never crosses a call and stays off the heap.
func smokeSize[T any](smoke []T) (size T, sized bool) {
	if len(smoke) > 0 {
		return smoke[0], true
	}
	return size, false
}

// Sched declares and reads "sched", the registered packet scheduler of the
// scenario's runs: the one key every scenario reads with one meaning and
// one default (`-set sched=NAME` on the CLI).
func (p *Params) Sched() string {
	return p.Str("sched", "lowest-rtt", "registered packet scheduler")
}

// Str returns a string parameter.
func (p *Params) Str(key, def, doc string, smoke ...string) string {
	size, sized := smokeSize(smoke)
	return param(p, key, "string", def, doc, size, sized,
		func(v string) (string, error) { return v, nil }, func(v string) string { return v })
}

// Bool returns a boolean parameter ("true"/"false"/"1"/"0"; a bare
// `-set smoke` style empty value counts as true).
func (p *Params) Bool(key string, def bool, doc string, smoke ...bool) bool {
	size, sized := smokeSize(smoke)
	return param(p, key, "bool", def, doc, size, sized, func(v string) (bool, error) {
		if v == "" {
			return true, nil
		}
		return strconv.ParseBool(v)
	}, strconv.FormatBool)
}

// Int returns an integer parameter.
func (p *Params) Int(key string, def int, doc string, smoke ...int) int {
	size, sized := smokeSize(smoke)
	return param(p, key, "int", def, doc, size, sized, strconv.Atoi, strconv.Itoa)
}

func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
func formatFloat(f float64) string         { return strconv.FormatFloat(f, 'g', -1, 64) }

// Float returns a float parameter.
func (p *Params) Float(key string, def float64, doc string, smoke ...float64) float64 {
	size, sized := smokeSize(smoke)
	return param(p, key, "float", def, doc, size, sized, parseFloat, formatFloat)
}

// Duration returns a duration parameter in Go syntax ("1s", "200ms").
func (p *Params) Duration(key string, def time.Duration, doc string, smoke ...time.Duration) time.Duration {
	size, sized := smokeSize(smoke)
	return param(p, key, "duration", def, doc, size, sized, time.ParseDuration, time.Duration.String)
}

// Floats returns a comma-separated float-list parameter.
func (p *Params) Floats(key string, def []float64, doc string, smoke ...[]float64) []float64 {
	size, sized := smokeSize(smoke)
	return param(p, key, "list", def, doc, size, sized, func(v string) ([]float64, error) {
		if v == "" {
			return nil, nil
		}
		var out []float64
		for _, part := range strings.Split(v, ",") {
			f, err := parseFloat(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}, func(fs []float64) string {
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = formatFloat(f)
		}
		return strings.Join(parts, ",")
	})
}

// Err reports the first value that failed to parse.
func (p *Params) Err() error { return p.err }

// Unused lists keys that were set but never read by the factory — almost
// always a typo the caller wants rejected.
func (p *Params) Unused() []string {
	var out []string
	for k := range p.vals {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
