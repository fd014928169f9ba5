package scenario

import (
	"reflect"
	"testing"
	"time"
)

func TestParamsTypedGetters(t *testing.T) {
	p, err := ParseSets([]string{
		"s=hello", "b=true", "i=42", "f=0.25", "d=150ms",
		"fl=0.1,0.2, 0.3", "empty=",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Str("s", "x", ""); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if !p.Bool("b", false, "") {
		t.Error("Bool(b) = false")
	}
	if !p.Bool("empty", false, "") {
		t.Error("Bool(empty) should count as true (bare flag)")
	}
	if got := p.Int("i", 0, ""); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := p.Float("f", 0, ""); got != 0.25 {
		t.Errorf("Float = %v", got)
	}
	if got := p.Duration("d", 0, ""); got != 150*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if got := p.Floats("fl", nil, ""); !reflect.DeepEqual(got, []float64{0.1, 0.2, 0.3}) {
		t.Errorf("Floats = %v", got)
	}
	if got := p.Int("missing", 7, ""); got != 7 {
		t.Errorf("missing default = %d", got)
	}
	if err := p.Err(); err != nil {
		t.Errorf("unexpected parse error: %v", err)
	}
	if unused := p.Unused(); len(unused) != 0 {
		t.Errorf("unused = %v", unused)
	}
}

func TestParamsBadValueAndUnused(t *testing.T) {
	p := NewParams(map[string]string{"n": "notanint", "typo": "1"})
	if got := p.Int("n", 3, ""); got != 3 {
		t.Errorf("bad value should fall back to default, got %d", got)
	}
	if p.Err() == nil {
		t.Error("expected a parse error")
	}
	if unused := p.Unused(); len(unused) != 1 || unused[0] != "typo" {
		t.Errorf("Unused = %v", unused)
	}
}

func TestParamsCloneIsolation(t *testing.T) {
	p := NewParams(map[string]string{"k": "v"})
	c := p.Clone()
	c.Set("k", "other")
	c.Str("k", "", "")
	if got := p.Str("k", "", ""); got != "v" {
		t.Errorf("clone mutated the original: %q", got)
	}
	var nilP *Params
	if nilP.Clone() == nil {
		t.Error("Clone of nil should return a fresh Params")
	}
}

func TestParseSetsBareKeysAndMalformed(t *testing.T) {
	// A bare key is flag-style shorthand: empty value, Bool-true.
	p, err := ParseSets([]string{"smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Bool("smoke", false, "") {
		t.Error("bare key should read as a true boolean")
	}
	if _, err := ParseSets([]string{"=v"}); err == nil {
		t.Error("expected error for empty key")
	}
}
