package fleet

import (
	"testing"
	"time"
)

func TestDeviceStreamDeterministic(t *testing.T) {
	a, b := DeviceStream(42), DeviceStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream 42 diverged at draw %d", i)
		}
	}
	if DeviceStream(0).Uint64() == DeviceStream(1).Uint64() {
		t.Fatal("adjacent ordinals produced the same first draw")
	}
	for i := 0; i < 1000; i++ {
		if f := DeviceStream(i).Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("commuter:3, office:1,home")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Weight != 3 || mix[2].Weight != 1 {
		t.Fatalf("mix = %+v", mix)
	}
	for _, bad := range []string{"", "nope:1", "commuter:0", "commuter:-1", "commuter:x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) did not fail", bad)
		}
	}
}

// genCfg is the test corpus configuration.
func genCfg(d time.Duration) GenConfig {
	mix, err := ParseMix(DefaultMix)
	if err != nil {
		panic(err)
	}
	return GenConfig{Mix: mix, Duration: d, HandoverRate: 1}
}

// TestOrdinalStableAcrossFleetSize is the corpus contract: device 7 is
// the SAME device — profile, link draws, full timeline — whether the
// fleet has 10 members or 1000. Without this, growing the fleet would
// silently re-randomise every existing device.
func TestOrdinalStableAcrossFleetSize(t *testing.T) {
	small, err := Generate(10, genCfg(12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(1000, genCfg(12*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		a, b := small[i], big[i]
		if a.Profile.Name != b.Profile.Name || a.WiFi != b.WiFi || a.LTE != b.LTE {
			t.Fatalf("device %d draws changed with fleet size: %+v vs %+v", i, a, b)
		}
		if a.Handovers != b.Handovers || a.Offline != b.Offline {
			t.Fatalf("device %d timeline changed with fleet size", i)
		}
		ae, be := a.Events(), b.Events()
		if len(ae) != len(be) {
			t.Fatalf("device %d: %d vs %d events", i, len(ae), len(be))
		}
		for k := range ae {
			if ae[k].At != be[k].At || ae[k].Name != be[k].Name {
				t.Fatalf("device %d event %d: (%v,%s) vs (%v,%s)",
					i, k, ae[k].At, ae[k].Name, be[k].At, be[k].Name)
			}
		}
	}
}

func TestDrawsWithinProfileRanges(t *testing.T) {
	devs, err := Generate(500, genCfg(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range devs {
		p := d.Profile
		seen[p.Name] = true
		if d.WiFi.RateBps < p.WiFi.RateBps[0] || d.WiFi.RateBps >= p.WiFi.RateBps[1] {
			t.Fatalf("device %d wifi rate %v outside %v", d.Ordinal, d.WiFi.RateBps, p.WiFi.RateBps)
		}
		if d.LTE.Delay < p.LTE.Delay[0] || d.LTE.Delay >= p.LTE.Delay[1] {
			t.Fatalf("device %d lte delay %v outside %v", d.Ordinal, d.LTE.Delay, p.LTE.Delay)
		}
		if d.WiFi.Loss < p.WiFi.Loss[0] || d.WiFi.Loss >= p.WiFi.Loss[1] {
			t.Fatalf("device %d wifi loss %v outside %v", d.Ordinal, d.WiFi.Loss, p.WiFi.Loss)
		}
	}
	for _, name := range ProfileNames() {
		if !seen[name] {
			t.Errorf("500 devices from the default mix never drew profile %s", name)
		}
	}
}

func TestHandoverRateScalesMobility(t *testing.T) {
	count := func(rate float64) int {
		cfg := genCfg(20 * time.Second)
		cfg.HandoverRate = rate
		devs, err := Generate(200, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range devs {
			total += d.Handovers
		}
		return total
	}
	slow, fast := count(0.5), count(2)
	if fast <= slow {
		t.Fatalf("handover_rate=2 scheduled %d handovers, rate=0.5 %d; want more", fast, slow)
	}
	cfg := genCfg(time.Second)
	cfg.HandoverRate = 0
	if _, err := Generate(4, cfg); err == nil {
		t.Fatal("HandoverRate=0 did not fail")
	}
}

func TestTimelineRespectsFloorAndDuration(t *testing.T) {
	dur := 15 * time.Second
	devs, err := Generate(300, genCfg(dur))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		for _, ev := range d.Events() {
			if ev.At < firstHandoverFloor {
				t.Fatalf("device %d schedules %s at %v, before the dial floor", d.Ordinal, ev.Name, ev.At)
			}
		}
	}
	evs := CollectEvents(devs, dur)
	if len(evs) == 0 {
		t.Fatal("no events collected")
	}
	for _, ev := range evs {
		if ev.At > dur {
			t.Fatalf("CollectEvents kept %s at %v past the %v window", ev.Name, ev.At, dur)
		}
	}
	for _, d := range devs {
		if d.Events() != nil {
			t.Fatalf("device %d still holds %d events the run now owns", d.Ordinal, len(d.Events()))
		}
	}
}
