package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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

// ParseSpec parses a compact rule grammar for command-line use, e.g.
// with vspserve -chaos. Rules are ';'-separated; each rule is a
// ','-separated list of key=value fields:
//
//	host=H          exact target host (default: any)
//	path=P          path prefix (default: any)
//	from=DUR        window start (Go duration, default 0)
//	until=DUR       window end (default: forever)
//	period=DUR      flap period (default: no flapping)
//	duty=F          active fraction of each period
//	phase=DUR       offset into the flap period
//	latency=A..B    added delay drawn from [A, B] (or latency=A fixed)
//	drop=P          connection-drop probability
//	err=P[:CODE]    synthesized error probability (default code 503)
//	cut=P[:BYTES]   response-cut probability, keeping BYTES bytes
//
// Probabilities and the duty fraction lie in [0, 1], a flapping rule's duty
// in (0, 1]; durations, the cut length and B - A are not negative, and an
// error code is a 4xx or 5xx. A spec outside that is refused rather than
// run: it would panic the handler it wraps or never fire.
//
// Example: "latency=50ms..200ms,from=10s,until=30s;err=0.3:502,period=2s,duty=0.5".
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("chaos: rule %q: %w", part, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return r, fmt.Errorf("field %q: want key=value", field)
		}
		var err error
		switch key {
		case "host":
			r.Host = val
		case "path":
			r.Path = val
		case "from":
			r.From, err = parseDuration(val)
		case "until":
			r.Until, err = parseDuration(val)
		case "period":
			r.Period, err = parseDuration(val)
		case "duty":
			r.Duty, err = parseFraction(val)
		case "phase":
			r.Phase, err = parseDuration(val)
		case "latency":
			lo, hi, ranged := strings.Cut(val, "..")
			r.Fault.LatencyMin, err = parseDuration(lo)
			r.Fault.LatencyMax = r.Fault.LatencyMin
			if err == nil && ranged {
				r.Fault.LatencyMax, err = parseDuration(hi)
				if err == nil && r.Fault.LatencyMax < r.Fault.LatencyMin {
					err = fmt.Errorf("range ends before it starts")
				}
			}
		case "drop":
			r.Fault.Drop, err = parseFraction(val)
		case "err":
			p, code, hasCode := strings.Cut(val, ":")
			r.Fault.ErrProb, err = parseFraction(p)
			if err == nil && hasCode {
				r.Fault.Code, err = strconv.Atoi(code)
				if err == nil && (r.Fault.Code < 400 || r.Fault.Code > 599) {
					err = fmt.Errorf("status %d is not a 4xx or 5xx", r.Fault.Code)
				}
			}
		case "cut":
			p, bytes, hasBytes := strings.Cut(val, ":")
			r.Fault.CutProb, err = parseFraction(p)
			if err == nil && hasBytes {
				r.Fault.CutAfter, err = strconv.Atoi(bytes)
				if err == nil && r.Fault.CutAfter < 0 {
					err = fmt.Errorf("negative byte count")
				}
			}
		default:
			return r, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return r, fmt.Errorf("field %q: %w", field, err)
		}
	}
	if r.Period > 0 && r.Duty == 0 {
		return r, fmt.Errorf("flapping rule needs duty in (0, 1]")
	}
	return r, nil
}

// parseDuration is time.ParseDuration for the spec's durations, none of
// which may be negative.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration")
	}
	return d, err
}

// parseFraction parses a probability or duty fraction: a number in [0, 1],
// which NaN is not.
func parseFraction(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && !(f >= 0 && f <= 1) {
		err = fmt.Errorf("%v is outside [0, 1]", f)
	}
	return f, err
}
