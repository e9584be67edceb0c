// Package workload generates Video-On-Reservation request batches. A
// request is (user, video, start time); the scheduler collects the batch
// for a cycle up front (paper §2.1), which is what enables the global
// optimization the paper exploits.
//
// Title popularity follows a Zipf-like distribution: the probability of
// the rank-i title (0-based rank r, i = r+1) is proportional to
// 1/i^(1-α). Smaller α means more skew; α→1 approaches uniform. This is
// the parameterization of Dan & Sitaram, whose α = 0.271 was shown to
// approximate commercial video-rental patterns, and is the one the paper's
// Experiment 3 sweeps (§5.4).
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
)

// Request is one reservation: user asks for video starting at Start.
// The JSON field names match the intake wire format (server
// ReservationRequest), so a JSONL trace line can be submitted as-is;
// decoding is case-insensitive, so older capitalized payloads still load.
type Request struct {
	User  topology.UserID `json:"user"`
	Video media.VideoID   `json:"video"`
	Start simtime.Time    `json:"start"`
}

// Set is a batch of requests for one scheduling cycle.
type Set []Request

// AppendJSON appends json.Marshal(s) to dst, byte for byte: null for a nil
// set, [] for an empty one. It is the writer of the accepted and pending sets
// in a horizon snapshot, which grow with the service's history; encoding/json
// stays their decoder.
func (s Set) AppendJSON(dst []byte) []byte { return s.EncodeJSON(dst, nil) }

// EncodeJSON is AppendJSON's encoder, writing through flush when it is not
// nil, as schedule.Schedule.EncodeJSON does: flush is handed dst whenever it
// has too little room left for a request and returns the buffer to go on in,
// and the result is then the encoding's last chunk.
func (s Set) EncodeJSON(dst []byte, flush func([]byte) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, r := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		// Room for the longest request: flushed, or else doubling the buffer
		// when it has to grow, since append alone would grow a large one a
		// quarter at a time.
		if cap(dst)-len(dst) < 96 {
			if flush != nil {
				dst = flush(dst)
			}
			if cap(dst)-len(dst) < 96 {
				dst = slices.Grow(dst, len(dst)+96)
			}
		}
		dst = strconv.AppendInt(append(dst, `{"user":`...), int64(r.User), 10)
		dst = strconv.AppendInt(append(dst, `,"video":`...), int64(r.Video), 10)
		dst = strconv.AppendInt(append(dst, `,"start":`...), int64(r.Start), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// ByVideo partitions the set into per-title request lists R_i, each sorted
// chronologically (ties broken by user ID for determinism). This is the
// partition the individual video scheduling phase works on (paper §3.2).
// The lists are capped windows of one array sorted by (video, start, user),
// so appending to one copies it instead of writing into the next.
func (s Set) ByVideo() map[media.VideoID][]Request {
	all := slices.Clone(s)
	slices.SortFunc(all, func(a, b Request) int {
		if a.Video != b.Video {
			return cmp.Compare(a.Video, b.Video)
		}
		return compareChronological(a, b)
	})
	titles := 0
	for i := range all {
		if i == 0 || all[i].Video != all[i-1].Video {
			titles++
		}
	}
	out := make(map[media.VideoID][]Request, titles)
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].Video == all[i].Video {
			j++
		}
		out[all[i].Video] = all[i:j:j]
		i = j
	}
	return out
}

// Videos returns the distinct requested titles in ascending ID order.
func (s Set) Videos() []media.VideoID {
	seen := make(map[media.VideoID]bool)
	for _, r := range s {
		seen[r.Video] = true
	}
	out := make([]media.VideoID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Window returns the earliest start and the latest start in the set.
func (s Set) Window() (simtime.Time, simtime.Time) {
	if len(s) == 0 {
		return 0, 0
	}
	lo, hi := s[0].Start, s[0].Start
	for _, r := range s[1:] {
		if r.Start < lo {
			lo = r.Start
		}
		if r.Start > hi {
			hi = r.Start
		}
	}
	return lo, hi
}

// compareChronological is the chronological order: by start time, ties by
// user ID.
func compareChronological(a, b Request) int {
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	return cmp.Compare(a.User, b.User)
}

// SortChronological sorts requests by start time, breaking ties by user ID.
func SortChronological(rs []Request) {
	slices.SortFunc(rs, compareChronological)
}

// IsChronological reports whether the requests are already in
// SortChronological's order.
func IsChronological(rs []Request) bool {
	return slices.IsSortedFunc(rs, compareChronological)
}

// Zipf draws title ranks with P(rank r) ∝ 1/(r+1)^(1-α).
type Zipf struct {
	cdf   []float64
	alpha float64
}

// NewZipf builds the distribution over n titles with skew parameter
// α ∈ [0, 1]. α = 1 is exactly uniform.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf needs n > 0, got %d", n)
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("workload: zipf alpha must be in [0,1], got %g", alpha)
	}
	z := &Zipf{cdf: make([]float64, n), alpha: alpha}
	theta := 1 - alpha
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z, nil
}

// Alpha returns the skew parameter.
func (z *Zipf) Alpha() float64 { return z.alpha }

// Prob returns the probability of the rank-r title (0-based).
func (z *Zipf) Prob(r int) float64 {
	if r == 0 {
		return z.cdf[0]
	}
	return z.cdf[r] - z.cdf[r-1]
}

// Draw samples a title rank using the given RNG.
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Arrival distributes request start times over the cycle window.
type Arrival int

const (
	// Uniform spreads start times uniformly over the window.
	Uniform Arrival = iota
	// EveningPeak concentrates start times around 3/4 of the window
	// (triangular distribution), modelling the prime-time surge the
	// paper's home-entertainment scenario implies.
	EveningPeak
	// Slotted aligns uniform start times to half-hour boundaries, the
	// natural granularity of a reservation interface.
	Slotted
)

func (a Arrival) String() string {
	switch a {
	case Uniform:
		return "uniform"
	case EveningPeak:
		return "evening-peak"
	case Slotted:
		return "slotted"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// Config parameterizes request-set generation. Zero values take the
// paper's defaults: every user issues one request, uniformly over a
// 12-hour reservation window.
type Config struct {
	Alpha           float64          // Zipf skew (default 0.271)
	Window          simtime.Duration // cycle window length (default 12h)
	Arrival         Arrival          // start-time process
	RequestsPerUser int              // requests issued per user (default 1)
	Seed            int64            // RNG seed
	// Locality in [0, 1] adds regional taste variation: with probability
	// Locality a user's drawn popularity rank is remapped through a
	// neighborhood-specific permutation of the catalog, so neighborhoods
	// agree on how *concentrated* demand is but not on *which* titles are
	// hot. 0 (default) reproduces the paper's globally shared ranking.
	Locality float64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.271
	}
	if c.Window == 0 {
		c.Window = 12 * simtime.Hour
	}
	if c.RequestsPerUser == 0 {
		c.RequestsPerUser = 1
	}
	return c
}

// Generate builds a request batch: every user of the topology issues
// RequestsPerUser requests for titles drawn from Zipf(α) at start times
// drawn from the arrival process. Generation is deterministic per
// (topology, catalog, config).
func Generate(topo *topology.Topology, catalog *media.Catalog, cfg Config) (Set, error) {
	cfg = cfg.withDefaults()
	if catalog.Len() == 0 {
		return nil, fmt.Errorf("workload: empty catalog")
	}
	if cfg.Locality < 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("workload: locality must be in [0,1], got %g", cfg.Locality)
	}
	zipf, err := NewZipf(catalog.Len(), cfg.Alpha)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perms := localPermutations(topo, catalog.Len(), cfg, rng)
	set := make(Set, 0, topo.NumUsers()*cfg.RequestsPerUser)
	for _, u := range topo.Users() {
		for k := 0; k < cfg.RequestsPerUser; k++ {
			start := drawStart(rng, cfg)
			rank := zipf.Draw(rng)
			if cfg.Locality > 0 && rng.Float64() < cfg.Locality {
				rank = remapRank(perms, u.Local, rank)
			}
			set = append(set, Request{
				User:  u.ID,
				Video: media.VideoID(rank),
				Start: start,
			})
		}
	}
	SortChronological(set)
	return set, nil
}

// localPermutations builds one catalog permutation per neighborhood when
// locality is enabled; nil otherwise.
func localPermutations(topo *topology.Topology, titles int, cfg Config, rng *rand.Rand) map[topology.NodeID][]int {
	if cfg.Locality <= 0 {
		return nil
	}
	perms := make(map[topology.NodeID][]int)
	for _, is := range topo.Storages() {
		perms[is] = rng.Perm(titles)
	}
	return perms
}

// remapRank sends a drawn popularity rank through the local node's
// catalog permutation. Permutations exist only for the intermediate
// storages; a user homed anywhere else (a topology form where users sit
// on the warehouse, say) falls back to the identity mapping instead of
// indexing a nil slice and panicking.
func remapRank(perms map[topology.NodeID][]int, local topology.NodeID, rank int) int {
	perm, ok := perms[local]
	if !ok {
		return rank
	}
	return perm[rank]
}

func drawStart(rng *rand.Rand, cfg Config) simtime.Time {
	w := int64(cfg.Window)
	switch cfg.Arrival {
	case EveningPeak:
		// Triangular distribution with mode at 3/4 of the window.
		mode := 0.75
		u := rng.Float64()
		var x float64
		if u < mode {
			x = math.Sqrt(u * mode)
		} else {
			x = 1 - math.Sqrt((1-u)*(1-mode))
		}
		return simtime.Time(int64(x * float64(w)))
	case Slotted:
		slot := int64(30 * simtime.Minute)
		nSlots := w / slot
		if nSlots == 0 {
			nSlots = 1
		}
		return simtime.Time(rng.Int63n(nSlots) * slot)
	default:
		return simtime.Time(rng.Int63n(w))
	}
}
