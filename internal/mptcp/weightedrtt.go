package mptcp

import (
	"math/rand"
	"time"

	"repro/internal/tcp"
)

// WeightedRTT picks among usable subflows at random with probability
// inversely proportional to each subflow's smoothed RTT — a probabilistic
// middle ground between lowest-rtt (which starves slow paths and never
// refreshes their RTT estimate) and round-robin (which ignores path
// quality entirely). Randomness comes exclusively from the simulation's
// seeded source, so runs remain deterministic per seed.
type WeightedRTT struct {
	rng *rand.Rand
	buf []*tcp.Subflow // per-connection candidate scratch (Pick is hot)
}

// NewWeightedRTT builds the scheduler around a deterministic source.
func NewWeightedRTT(rng *rand.Rand) *WeightedRTT { return &WeightedRTT{rng: rng} }

// minWeightRTT floors the SRTT used for weighting: a subflow with no RTT
// sample yet (SRTT 0) would otherwise get infinite weight and starve
// every measured path.
const minWeightRTT = time.Millisecond

// Pick implements Scheduler.
func (w *WeightedRTT) Pick(subflows []*tcp.Subflow, want int) *tcp.Subflow {
	pick := func(backup bool) *tcp.Subflow {
		candidates := w.buf[:0]
		total := 0.0
		for _, sf := range subflows {
			if usable(sf, backup, want) {
				candidates = append(candidates, sf)
				total += w.weight(sf)
			}
		}
		w.buf = candidates[:0]
		sf := w.draw(candidates, total)
		clear(candidates) // the scratch keeps no subflow past the pick
		return sf
	}
	if sf := pick(false); sf != nil {
		return sf
	}
	if !backupsAllowed(subflows) {
		return nil
	}
	return pick(true)
}

// draw picks one candidate with probability proportional to its weight;
// total is the sum of their weights.
func (w *WeightedRTT) draw(candidates []*tcp.Subflow, total float64) *tcp.Subflow {
	switch len(candidates) {
	case 0:
		return nil
	case 1:
		return candidates[0]
	}
	r := w.rng.Float64() * total
	for _, sf := range candidates {
		r -= w.weight(sf)
		if r < 0 {
			return sf
		}
	}
	return candidates[len(candidates)-1] // float round-off
}

func (w *WeightedRTT) weight(sf *tcp.Subflow) float64 {
	rtt := sf.SRTT()
	if rtt < minWeightRTT {
		rtt = minWeightRTT
	}
	return 1 / rtt.Seconds()
}
