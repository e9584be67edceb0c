package chaos

import (
	"math/rand"
	"time"
)

// RandomRules builds a reproducible chaos schedule for a soak run: for
// each host it lays down a few randomized fault episodes — gray
// latency, full partitions, flapping links, 5xx bursts, and torn plan
// reads — all inside [0, dur), so the system is guaranteed fault-free
// once dur has elapsed. The same seed always yields the same schedule.
//
// Body cuts are scoped to the read-only /v1/plan path: truncating a
// write's response would leave the caller unable to tell whether the
// write committed, and the soak's exactly-once invariant needs every
// injected write failure to be unambiguous.
func RandomRules(seed int64, hosts []string, dur time.Duration) []Rule {
	rnd := rand.New(rand.NewSource(seed))
	var rules []Rule
	window := func() (from, until time.Duration) {
		from = time.Duration(rnd.Int63n(int64(dur * 6 / 10)))
		length := dur/10 + time.Duration(rnd.Int63n(int64(dur*3/10)))
		until = from + length
		if until > dur {
			until = dur
		}
		return from, until
	}
	for _, h := range hosts {
		n := 2 + rnd.Intn(3)
		for i := 0; i < n; i++ {
			from, until := window()
			r := Rule{Host: h, From: from, Until: until}
			switch rnd.Intn(5) {
			case 0: // gray latency
				r.Fault = Fault{
					LatencyMin: 20 * time.Millisecond,
					LatencyMax: 120 * time.Millisecond,
				}
			case 1: // hard partition
				r.Fault = Fault{Drop: 1}
			case 2: // flapping link
				r.Period = time.Duration(40+rnd.Intn(120)) * time.Millisecond
				r.Duty = 0.3 + 0.4*rnd.Float64()
				r.Phase = time.Duration(rnd.Int63n(int64(r.Period)))
				r.Fault = Fault{Drop: 1}
			case 3: // 5xx burst
				r.Fault = Fault{ErrProb: 0.5 + 0.4*rnd.Float64(), Code: 503}
			case 4: // torn plan reads
				r.Path = "/v1/plan"
				r.Fault = Fault{CutProb: 0.6, CutAfter: 1 + rnd.Intn(64)}
			}
			rules = append(rules, r)
		}
	}
	return rules
}
