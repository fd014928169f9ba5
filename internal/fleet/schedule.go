package fleet

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
)

// firstHandoverFloor is the earliest a device may start fading its WiFi:
// late enough that every staggered dial (1 ms + 10 µs per device) has
// completed its MP_CAPABLE handshake on the still-up primary interface.
const firstHandoverFloor = 300 * time.Millisecond

// Device is one generated fleet member: its drawn link qualities and its
// compiled mobility timeline. Everything here is a pure function of
// (ordinal, mix, handover rate, duration) — see the package doc.
type Device struct {
	Ordinal int
	Profile *Profile
	WiFi    netem.LinkConfig // drawn access-link quality, primary
	LTE     netem.LinkConfig // drawn access-link quality, fallback

	// Handovers is how many WiFi→LTE switches the timeline schedules
	// within the corpus duration; Offline is the summed WiFi downtime.
	Handovers int
	Offline   time.Duration

	wifiLink, lteLink string
	events            []scenario.Event
}

// WiFiLink and LTELink name the device's two access links in the built
// topology ("wifi<ordinal>", "lte<ordinal>"). genDevice formats them once:
// every timeline event names one.
func (d *Device) WiFiLink() string { return d.wifiLink }
func (d *Device) LTELink() string  { return d.lteLink }

// Events returns the device's compiled scenario events, until
// CollectEvents has moved them into a run.
func (d *Device) Events() []scenario.Event { return d.events }

// GenConfig are the corpus-generation knobs shared by every device.
type GenConfig struct {
	Mix      []MixEntry
	Duration time.Duration // corpus window; events past it are dropped
	// HandoverRate scales mobility: dwell times divide by it, so 2.0
	// hands over twice as often and 0.5 half as often. Must be > 0.
	HandoverRate float64
}

// Generate draws the whole fleet: device i's profile, link qualities,
// and mobility timeline all come from DeviceStream(i), so the corpus is
// identical for any shard count, any seed, and any total device count
// (device 17 is the same device in a 20-device and a 10 000-device run).
func Generate(n int, cfg GenConfig) ([]*Device, error) {
	if cfg.HandoverRate <= 0 {
		return nil, fmt.Errorf("fleet: handover_rate %v: must be positive", cfg.HandoverRate)
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("fleet: empty profile mix")
	}
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = genDevice(i, cfg)
	}
	return devs, nil
}

// genDevice draws one device. The draw order is part of the format:
// profile, WiFi link, LTE link, then the handover timeline, then the
// cross-traffic timeline — changing it changes every corpus.
func genDevice(i int, cfg GenConfig) *Device {
	s := DeviceStream(i)
	p := pick(cfg.Mix, s)
	d := &Device{Ordinal: i, Profile: p, WiFi: p.WiFi.draw(s), LTE: p.LTE.draw(s)}
	d.wifiLink, d.lteLink = "wifi"+strconv.Itoa(i), "lte"+strconv.Itoa(i)

	rate := cfg.HandoverRate
	dwell := func(r Ranged) time.Duration {
		return time.Duration(float64(s.Between(r[0], r[1])) / rate)
	}
	fadeLead := time.Duration(p.FadeSteps) * p.FadeStep

	// Handover timeline: dwell on WiFi, fade, drop WiFi for an LTE
	// dwell, then come back with the residual loss restored.
	t := firstHandoverFloor + fadeLead + dwell(p.WiFiDwell)
	for t < cfg.Duration {
		for k := 1; k <= p.FadeSteps; k++ {
			frac := float64(k) / float64(p.FadeSteps)
			loss := d.WiFi.Loss + frac*(p.FadeLoss-d.WiFi.Loss)
			d.setLoss(t-fadeLead+time.Duration(k-1)*p.FadeStep, "fleet.fade", d.wifiLink, loss)
		}
		out := dwell(p.LTEDwell)
		d.events = append(d.events, scenario.FlapClientIface(t, out, i, 0)...)
		d.setLoss(t+out, "fleet.recover", d.wifiLink, d.WiFi.Loss)
		d.Handovers++
		d.Offline += out
		t += out + fadeLead + dwell(p.WiFiDwell)
	}

	// Cross-traffic bursts on the LTE path, independent cadence.
	if p.CrossEvery[1] > 0 {
		ct := s.Between(p.CrossEvery[0], p.CrossEvery[1])
		for ct < cfg.Duration {
			loss := s.Range(p.CrossLoss[0], p.CrossLoss[1])
			dur := s.Between(p.CrossDur[0], p.CrossDur[1])
			d.setLoss(ct, "fleet.cross", d.lteLink, loss)
			d.setLoss(ct+dur, "fleet.calm", d.lteLink, d.LTE.Loss)
			ct += dur + s.Between(p.CrossEvery[0], p.CrossEvery[1])
		}
	}
	return d
}

// setLoss appends the event that, at `at`, sets both directions of the
// named link to the given loss ratio — a radio fade degrades uplink and
// downlink alike, unlike the egress-qdisc loss steps of the paper figures.
func (d *Device) setLoss(at time.Duration, name, link string, loss float64) {
	d.events = append(d.events, scenario.Event{At: at, Name: name, Fn: setLinkLoss,
		Arg: scenario.EventArg{Name: link, Loss: loss}})
}

func setLinkLoss(rt *scenario.Run, a scenario.EventArg) { rt.Net.Link(a.Name).SetLoss(a.Loss) }

// CollectEvents moves every device's timeline into one event list for a
// RunSpec, dropping events past the corpus duration (the stop horizon
// would never fire them anyway). The devices give their copies up, so a
// fleet holds each event once.
func CollectEvents(devs []*Device, duration time.Duration) []scenario.Event {
	n := 0
	for _, d := range devs {
		for i := range d.events {
			if d.events[i].At <= duration {
				n++
			}
		}
	}
	out := make([]scenario.Event, 0, n)
	for _, d := range devs {
		for _, ev := range d.events {
			if ev.At <= duration {
				out = append(out, ev)
			}
		}
		d.events = nil
	}
	return out
}
