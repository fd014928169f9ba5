package stats

import (
	"bytes"
	"strings"
	"testing"
)

func sampleResult() *Result {
	r := NewResult("json-test")
	r.Report = "this text must NOT reach result.json"
	r.Scalars["goodput_mbps"] = 37.5
	r.Scalars["stalls"] = 2
	r.Sample("rtt_ms").Add(10, 12, 11, 40)
	s := &Series{Name: "cwnd"}
	s.Append(0, 10, "")
	s.Append(1, 20, "loss")
	r.Series = append(r.Series, s)
	return r
}

func TestResultDataRoundTrip(t *testing.T) {
	d := sampleResult().Data()
	buf, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf, []byte("\n")) {
		t.Fatal("encoded result must end with a newline")
	}
	if strings.Contains(string(buf), "NOT reach") {
		t.Fatal("report text leaked into result.json")
	}
	got, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "json-test" || got.Scalars["goodput_mbps"] != 37.5 {
		t.Fatalf("round-trip lost scalars: %+v", got)
	}
	if len(got.Samples["rtt_ms"]) != 4 || got.Samples["rtt_ms"][3] != 40 {
		t.Fatalf("round-trip lost sample observations: %v", got.Samples["rtt_ms"])
	}
	if len(got.Series) != 1 || got.Series[0].Labels[1] != "loss" {
		t.Fatalf("round-trip lost series labels: %+v", got.Series)
	}
}

// The whole point of the encoding: two Data()+Encode() passes over the
// same Result produce identical bytes, so `mpexp diff` can trust that a
// byte difference is a numeric difference.
func TestResultEncodeDeterministic(t *testing.T) {
	r := sampleResult()
	a, err := r.Data().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Data().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

// Data() deep-copies: mutating the Result afterwards must not change an
// already-taken snapshot.
func TestResultDataCopies(t *testing.T) {
	r := sampleResult()
	d := r.Data()
	r.Sample("rtt_ms").Add(999)
	if len(d.Samples["rtt_ms"]) != 4 {
		t.Fatal("Data() aliases the live sample slice")
	}
}

func TestSummaryDataRoundTrip(t *testing.T) {
	s := &Sample{}
	s.Add(1, 2, 3, 4, 5)
	d := &SummaryData{
		Name:     "agg",
		Seeds:    5,
		BaseSeed: 7,
		Failed:   1,
		Scalars:  map[string]ScalarStats{"goodput": SummarizeScalar(s)},
	}
	buf, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSummary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seeds != 5 || got.BaseSeed != 7 || got.Failed != 1 {
		t.Fatalf("round-trip lost run shape: %+v", got)
	}
	st := got.Scalars["goodput"]
	if st.N != 5 || st.Mean != 3 || st.Median != 3 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("round-trip lost stats: %+v", st)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, b2) {
		t.Fatal("summary re-encode not byte-identical")
	}
}
