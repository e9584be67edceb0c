package main

import (
	"math"
	"math/rand"

	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/pricing"
	"github.com/vodsim/vsp/internal/routing"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// The benchmark owns its inputs: the priced infrastructure is assembled
// from the layer constructors directly and the trace comes from the
// generator below, not from internal/workload.Pattern, internal/loadgen or
// internal/experiment, so a PR that slims those packages cannot shift what
// the benchmark feeds the system.

const (
	// modelSeed fixes the metro's cross links and the catalog's title
	// sizes. They are part of each workload's definition; only the trace
	// varies with -seed.
	modelSeed = 1
	// zipfAlpha is Dan & Sitaram's video-rental skew (paper §5.4).
	zipfAlpha   = 0.271
	srateGBHour = 5.0
	nrateGB     = 500.0
)

// rigSpec sizes one priced infrastructure.
type rigSpec struct {
	storages, usersPer, titles int
	capacityGB                 float64
}

func (r rigSpec) model() (*cost.Model, error) {
	topo := topology.Metro(topology.GenConfig{
		Storages:        r.storages,
		UsersPerStorage: r.usersPer,
		Capacity:        units.GBf(r.capacityGB),
	}, modelSeed)
	cat, err := media.Generate(media.GenConfig{Titles: r.titles, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	srate := pricing.SRate(srateGBHour / (float64(units.GB) * 3600))
	book := pricing.Uniform(topo, srate, pricing.PerGB(nrateGB))
	return cost.NewModel(book, routing.NewTable(book), cat), nil
}

// zipf is the cumulative popularity of 0-based title ranks, with
// P(rank r) ∝ 1/(r+1)^(1-α).
type zipf struct{ cdf []float64 }

func newZipf(n int, alpha float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 1-alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

// genTrace draws n reservations in start order, stratified so that seeds
// differ in which titles and users collide when, not in how much load the
// trace carries: title counts are apportioned to the Zipf law exactly and
// every user makes the same number of requests (both shuffled by the
// seed), and there is one start per slot of span/n seconds, uniform within
// its slot. Every window holds the same number of requests, so the trace is
// stationary by construction and every epoch costs about the same to plan.
func genTrace(seed int64, users, titles, n int, span simtime.Duration) []workload.Request {
	rng := rand.New(rand.NewSource(seed))
	z := newZipf(titles, zipfAlpha)
	videos := make([]media.VideoID, 0, n)
	for t := 0; t < titles; t++ {
		upTo := int(math.Round(z.cdf[t] * float64(n)))
		for len(videos) < upTo {
			videos = append(videos, media.VideoID(t))
		}
	}
	rng.Shuffle(n, func(i, j int) { videos[i], videos[j] = videos[j], videos[i] })
	who := rng.Perm(n)
	slot := float64(span) / float64(n)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			User:  topology.UserID(who[i] % users),
			Video: videos[i],
			Start: simtime.Time((float64(i) + rng.Float64()) * slot),
		}
	}
	return reqs
}
