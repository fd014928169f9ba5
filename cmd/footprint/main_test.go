package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestFleetDeviceFootprint pins what a fleet device keeps resident: a
// smoke-sized fleet (12 devices), measured as `make footprint` measures
// the benchmark's 1000, after warm-up runs and at the last Collect. The
// per-device figure includes each device's share of the server and the
// aggregation trunk, which 12 devices split. The budget is the measured
// figure, 10 533 bytes and 76 to 77 objects (11 636 and 90 while the
// endpoint's, the PM's and the policy mux's small tables were maps), plus
// 2 % and 1 to 2 objects of headroom: a change that makes every device
// keep one more small map trips it.
func TestFleetDeviceFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are pinned without -race instrumentation")
	}
	const maxBytes, maxObjects = 10750, 78
	fp, err := measure(map[string]string{"smoke": ""}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp.devices != 12 {
		t.Fatalf("smoke fleet ran %d devices, want 12", fp.devices)
	}
	bytes, objects := fp.bytes/int64(fp.devices), fp.objects/int64(fp.devices)
	t.Logf("%d devices: %d bytes, %d objects resident per device", fp.devices, bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("a device keeps %d bytes and %d objects resident, over the budget of %d and %d",
			bytes, objects, maxBytes, maxObjects)
	}
}

// TestFootprintReport runs the command on the smoke fleet: the report
// prices the endpoint's site, and its sites sum to within 10 % of the
// total the heap statistics give.
func TestFootprintReport(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap figures are read without -race instrumentation")
	}
	out, err := os.CreateTemp(t.TempDir(), "footprint")
	if err != nil {
		t.Fatal(err)
	}
	stdout, full := os.Stdout, params
	os.Stdout, params = out, map[string]string{"smoke": ""}
	defer func() { os.Stdout, params = stdout, full }()
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	rep := string(b)
	var total, sum float64
	for _, line := range strings.Split(rep, "\n") {
		if v, ok := strings.CutPrefix(line, "per device: "); ok {
			fmt.Sscan(v, &total)
		}
		if strings.HasSuffix(line, "(sum over the sites)") {
			fmt.Sscan(line, &sum)
		}
	}
	if !strings.Contains(rep, "mptcp.NewEndpoint endpoint.go:") || total <= 0 || math.Abs(sum-total) > total/10 {
		t.Fatalf("total %v, sites sum to %v, in:\n%s", total, sum, rep)
	}
}
