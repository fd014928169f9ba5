package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A Manifest is the on-disk declarative form of one experiment: the
// scenario to run, its typed parameters, the seeds, and (optionally) sweep
// axes — everything `mpexp run`/`sweep` would otherwise take as flags, as
// one reviewable, committable JSON file.
//
// Manifests load through the exact same typed-Params validation as `-set`
// flags: unknown scenarios, unknown parameter keys, and unparseable
// values die in Plan with the same errors `scenario.Build` raises on
// the command line, so a manifest cannot drift from what the registry
// accepts. Parameter values may be written as JSON strings, numbers, or
// booleans; numbers keep their literal spelling (0.30 stays "0.30"), so
// a manifest-driven run is byte-identical to the equivalent flag-driven
// one.
type Manifest struct {
	// Name labels the run (workspace run directories derive their ids
	// from it). Empty: LoadManifest fills it from the file's base name,
	// otherwise it defaults to the scenario name.
	Name string `json:"name,omitempty"`
	// Scenario is the registered scenario to run (required).
	Scenario string `json:"scenario"`
	// Params are the scenario's key=value knobs — exactly what `-set`
	// carries, including the keys Build reads for every scenario: "trace"
	// and "metrics" (a file path; "" names none, and a workspace run then
	// stores the file in its run or cell directory), "trace_cap" and
	// "shards".
	Params ParamValues `json:"params,omitempty"`

	// Seed is the base simulation seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Seeds is the number of independent seeds (0 = 1).
	Seeds int `json:"seeds,omitempty"`

	// Sweep, when present, crosses the scenario over parameter axes
	// (a scheduler axis is the "sched" key, a controller axis "policy");
	// each cell runs Seeds seeds.
	Sweep *ManifestSweep `json:"sweep,omitempty"`
}

// ManifestSweep declares the sweep axes of a manifest.
type ManifestSweep struct {
	Vary []ManifestAxis `json:"vary,omitempty"`
}

// ManifestAxis is one parameter sweep dimension. Axes are an ordered
// list (not a JSON object) so the cell enumeration order — and with it
// cell ids and trace suffixes — is explicit in the file.
type ManifestAxis struct {
	Key    string     `json:"key"`
	Values AxisValues `json:"values"`
}

// scalar is one parameter value as a manifest may spell it: a JSON
// string, number or boolean. A number keeps its literal text, so "loss":
// 0.30 reaches the typed Params as the string "0.30" — the same bytes
// `-set loss=0.30` would carry.
type scalar string

func (v *scalar) UnmarshalJSON(buf []byte) error {
	switch buf[0] {
	case '"':
		return json.Unmarshal(buf, (*string)(v))
	case '{', '[', 'n':
		return fmt.Errorf("parameter value %s: want a JSON string, number, or boolean", buf)
	}
	*v = scalar(buf)
	return nil
}

// ParamValues is a manifest's params object: plain strings in Go, any
// scalar in the file.
type ParamValues map[string]string

func (pv *ParamValues) UnmarshalJSON(buf []byte) error {
	var raw map[string]scalar
	if err := json.Unmarshal(buf, &raw); err != nil {
		return err
	}
	*pv = make(ParamValues, len(raw))
	for k, v := range raw {
		(*pv)[k] = string(v)
	}
	return nil
}

// AxisValues is the value list of one sweep axis, decoded like ParamValues.
type AxisValues []string

func (av *AxisValues) UnmarshalJSON(buf []byte) error {
	var raw []scalar
	if err := json.Unmarshal(buf, &raw); err != nil {
		return err
	}
	// An absent, null or empty list all decode to nil, so a snapshot
	// reloads to the same snapshot (Plan refuses the axis either way).
	*av = nil
	for _, v := range raw {
		*av = append(*av, string(v))
	}
	return nil
}

// ParseManifest decodes manifest JSON. Decoding is strict — unknown
// fields anywhere in the document are errors, so a typo ("param" for
// "params") cannot silently change what runs — but semantic validation
// (registered scenario, parameter keys/values) happens in Plan, so
// callers can distinguish "not a manifest" from "a manifest that asks
// for something invalid".
func ParseManifest(buf []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	// A trailing second document is a malformed file, not extra config.
	if dec.More() {
		return nil, fmt.Errorf("manifest: trailing data after the JSON document")
	}
	return m, nil
}

// LoadManifest reads and parses a manifest file. A missing Name defaults
// to the file's base name without its extension ("fig2a-smoke.json" →
// "fig2a-smoke").
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m, err := ParseManifest(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Name == "" {
		base := filepath.Base(path)
		m.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return m, nil
}

// RunName returns the label workspace run directories derive their ids
// from: Name, falling back to the scenario.
func (m *Manifest) RunName() string {
	if m.Name != "" {
		return m.Name
	}
	return m.Scenario
}

// BaseSeed returns the effective base seed (manifest zero = seed 1, the
// same default as the CLI's -seed flag).
func (m *Manifest) BaseSeed() int64 {
	if m.Seed == 0 {
		return 1
	}
	return m.Seed
}

// EffectiveSeeds returns the effective seed count (minimum 1).
func (m *Manifest) EffectiveSeeds() int {
	if m.Seeds <= 0 {
		return 1
	}
	return m.Seeds
}

// Snapshot renders the resolved manifest — every field explicit, params
// sorted — as the manifest.json a workspace run directory stores. It is
// deterministic for a given manifest, so two identical runs snapshot
// byte-identically.
func (m *Manifest) Snapshot() ([]byte, error) {
	// Copy with defaults resolved, so the snapshot records what actually
	// ran rather than what the author omitted.
	c := *m
	c.Name = m.RunName()
	c.Seed = m.BaseSeed()
	c.Seeds = m.EffectiveSeeds()
	buf, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest %s: snapshot: %w", m.RunName(), err)
	}
	return append(buf, '\n'), nil
}
