// Command vspgen generates the artifacts the other tools consume:
// service topologies, video catalogs and reservation workloads.
//
// Usage:
//
//	vspgen -kind topology -gen metro -storages 19 -users 10 -capacity-gb 5 > topo.json
//	vspgen -kind catalog -titles 500 -mean-gb 3.3 > catalog.json
//	vspgen -kind workload -topo topo.json -catalog catalog.json -alpha 0.271 > requests.json
//	vspgen -kind trace -topo topo.json -catalog catalog.json -requests 1000000 \
//	       -diurnal 0.6 -flash 20h:4:0:0.7 -format jsonl -out trace.jsonl
//
// The workload kind emits one JSON array and suits batch scheduling
// (vspsched). The trace kind streams a structured Pattern workload —
// diurnal cycle, premiere flash crowds, rate windows, rank drift,
// catalog churn, regional cohorts — record by record through a
// TraceWriter, so a million-request trace goes straight to disk without
// ever being resident; replay it with vspload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

type genOptions struct {
	kind string

	// topology
	gen        string
	storages   int
	users      int
	capacityGB float64
	fanout     int
	extraEdges int

	// catalog
	titles int
	meanGB float64

	// workload & trace
	topoPath string
	catPath  string
	alpha    float64
	locality float64
	seed     int64

	// workload (batch)
	windowH int
	rpu     int
	arrival string

	// trace (streaming pattern)
	requests      int
	spanHours     float64
	slotMinutes   float64
	diurnal       float64
	diurnalPeakH  float64
	flashSpecs    string
	windowSpecs   string
	driftHours    float64
	driftSwaps    int
	churnHours    float64
	churnFraction float64
	regions       int
	cohortShare   float64
	staggerHours  float64
	format        string
	outPath       string
}

func main() {
	var o genOptions
	flag.StringVar(&o.kind, "kind", "topology", "what to generate: topology | catalog | workload | trace")
	flag.StringVar(&o.gen, "gen", "metro", "topology generator: metro | star | chain | tree | ring | random")
	flag.IntVar(&o.storages, "storages", 19, "number of intermediate storages")
	flag.IntVar(&o.users, "users", 10, "users per neighborhood")
	flag.Float64Var(&o.capacityGB, "capacity-gb", 5, "per-storage capacity (GB)")
	flag.IntVar(&o.fanout, "fanout", 2, "tree fanout (tree generator)")
	flag.IntVar(&o.extraEdges, "extra-edges", 6, "extra links (random generator)")
	flag.IntVar(&o.titles, "titles", 500, "catalog size")
	flag.Float64Var(&o.meanGB, "mean-gb", 3.3, "mean title size (GB)")
	flag.StringVar(&o.topoPath, "topo", "", "topology JSON (workload | trace)")
	flag.StringVar(&o.catPath, "catalog", "", "catalog JSON (workload | trace)")
	flag.Float64Var(&o.alpha, "alpha", 0.271, "Zipf skew (workload | trace)")
	flag.Float64Var(&o.locality, "locality", 0, "neighborhood taste variation in [0,1] (workload | trace)")
	flag.IntVar(&o.windowH, "window-hours", 12, "reservation window (workload)")
	flag.IntVar(&o.rpu, "rpu", 1, "requests per user (workload)")
	flag.StringVar(&o.arrival, "arrival", "uniform", "arrival process: uniform | peak | slotted (workload)")
	flag.Int64Var(&o.seed, "seed", 1997, "RNG seed")
	flag.IntVar(&o.requests, "requests", 10000, "total reservations to emit (trace)")
	flag.Float64Var(&o.spanHours, "span-hours", 24, "trace duration in hours (trace)")
	flag.Float64Var(&o.slotMinutes, "slot-minutes", 5, "rate-profile resolution in minutes (trace)")
	flag.Float64Var(&o.diurnal, "diurnal", 0, "diurnal cycle strength in [0,1] (trace)")
	flag.Float64Var(&o.diurnalPeakH, "diurnal-peak-hours", 20, "diurnal peak offset in hours (trace)")
	flag.StringVar(&o.flashSpecs, "flash", "", "premiere flash crowds as at_hours:boost:video:share, comma-separated (trace)")
	flag.StringVar(&o.windowSpecs, "rate-window", "", "rate windows as from_hours:to_hours:factor, comma-separated (trace)")
	flag.Float64Var(&o.driftHours, "drift-hours", 0, "rank drift interval in hours, 0 = off (trace)")
	flag.IntVar(&o.driftSwaps, "drift-swaps", 0, "adjacent-rank swaps per drift interval, 0 = titles/20 (trace)")
	flag.Float64Var(&o.churnHours, "churn-hours", 0, "catalog churn interval in hours, 0 = off (trace)")
	flag.Float64Var(&o.churnFraction, "churn-fraction", 0.05, "catalog fraction re-rolled per churn interval (trace)")
	flag.IntVar(&o.regions, "regions", 0, "contiguous metro regions for cohort demand, 0 = off (trace)")
	flag.Float64Var(&o.cohortShare, "cohort-share", 0, "probability a request follows its region's taste permutation (trace)")
	flag.Float64Var(&o.staggerHours, "region-stagger-hours", 0, "diurnal phase shift per region in hours (trace)")
	flag.StringVar(&o.format, "format", "jsonl", "trace format: csv | jsonl (trace)")
	flag.StringVar(&o.outPath, "out", "", "write the trace here instead of stdout (trace)")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "vspgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o genOptions) error {
	switch o.kind {
	case "topology":
		cfg := topology.GenConfig{
			Storages:        o.storages,
			UsersPerStorage: o.users,
			Capacity:        units.GBf(o.capacityGB),
		}
		var topo *topology.Topology
		switch o.gen {
		case "metro":
			topo = topology.Metro(cfg, o.seed)
		case "star":
			topo = topology.Star(cfg)
		case "chain":
			topo = topology.Chain(cfg)
		case "tree":
			topo = topology.Tree(cfg, o.fanout)
		case "ring":
			topo = topology.Ring(cfg)
		case "random":
			topo = topology.Random(cfg, o.extraEdges, o.seed)
		default:
			return fmt.Errorf("unknown topology generator %q", o.gen)
		}
		st := topo.ComputeStats()
		fmt.Fprintf(os.Stderr, "vspgen: %d nodes, %d links, %d users; diameter %d hops, avg VW distance %.1f\n",
			st.Nodes, st.Links, st.Users, st.Diameter, st.AvgHops)
		return topo.Encode(w)

	case "catalog":
		cat, err := media.Generate(media.GenConfig{
			Titles:   o.titles,
			MeanSize: units.GBf(o.meanGB),
			Seed:     o.seed,
		})
		if err != nil {
			return err
		}
		return cat.Encode(w)

	case "workload":
		topo, cat, err := loadModel(o)
		if err != nil {
			return err
		}
		var arr workload.Arrival
		switch o.arrival {
		case "uniform":
			arr = workload.Uniform
		case "peak":
			arr = workload.EveningPeak
		case "slotted":
			arr = workload.Slotted
		default:
			return fmt.Errorf("unknown arrival %q", o.arrival)
		}
		set, err := workload.Generate(topo, cat, workload.Config{
			Alpha:           o.alpha,
			Locality:        o.locality,
			Window:          simtime.Duration(o.windowH) * simtime.Hour,
			RequestsPerUser: o.rpu,
			Arrival:         arr,
			Seed:            o.seed,
		})
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(set)

	case "trace":
		topo, cat, err := loadModel(o)
		if err != nil {
			return err
		}
		p, err := o.pattern()
		if err != nil {
			return err
		}
		out := w
		if o.outPath != "" {
			f, err := os.Create(o.outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		var tw workload.TraceWriter
		switch o.format {
		case "csv":
			tw = workload.NewCSVTraceWriter(out)
		case "jsonl":
			tw = workload.NewJSONLTraceWriter(out)
		default:
			return fmt.Errorf("unknown format %q (csv | jsonl)", o.format)
		}
		if err := p.Stream(topo, cat, tw.Write); err != nil {
			return err
		}
		if err := tw.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vspgen: streamed %d requests over %.0fh\n", p.Requests, o.spanHours)
		return nil

	default:
		return fmt.Errorf("unknown kind %q (topology | catalog | workload | trace)", o.kind)
	}
}

// pattern assembles the trace kind's Pattern from the flat flags.
func (o genOptions) pattern() (workload.Pattern, error) {
	p := workload.Pattern{
		Base:     workload.Config{Alpha: o.alpha, Locality: o.locality, Seed: o.seed},
		Requests: o.requests,
		Span:     hours(o.spanHours),
		Slot:     simtime.Duration(o.slotMinutes * float64(simtime.Minute)),
		Diurnal: workload.Diurnal{
			Strength: o.diurnal,
			Peak:     hours(o.diurnalPeakH),
		},
		Drift:         workload.Drift{Interval: hours(o.driftHours), Swaps: o.driftSwaps},
		Regions:       o.regions,
		CohortShare:   o.cohortShare,
		RegionStagger: hours(o.staggerHours),
	}
	if o.churnHours > 0 {
		p.Churn = workload.Churn{Interval: hours(o.churnHours), Fraction: o.churnFraction}
	}
	for _, spec := range splitSpecs(o.flashSpecs) {
		f, err := parseFlash(spec)
		if err != nil {
			return p, err
		}
		p.Flash = append(p.Flash, f)
	}
	for _, spec := range splitSpecs(o.windowSpecs) {
		w, err := parseWindow(spec)
		if err != nil {
			return p, err
		}
		p.Windows = append(p.Windows, w)
	}
	return p, nil
}

func hours(h float64) simtime.Duration { return simtime.Duration(h * float64(simtime.Hour)) }

func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// parseFlash reads "at_hours:boost[:video[:share]]", e.g. "20h:4:0:0.7"
// (the h suffix on the first field is optional).
func parseFlash(spec string) (workload.Flash, error) {
	var f workload.Flash
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return f, fmt.Errorf("flash %q: want at_hours:boost[:video[:share]]", spec)
	}
	at, err := strconv.ParseFloat(strings.TrimSuffix(parts[0], "h"), 64)
	if err != nil {
		return f, fmt.Errorf("flash %q: bad at %q", spec, parts[0])
	}
	f.At = simtime.Time(hours(at))
	if f.Boost, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return f, fmt.Errorf("flash %q: bad boost %q", spec, parts[1])
	}
	if len(parts) >= 3 {
		v, err := strconv.Atoi(parts[2])
		if err != nil {
			return f, fmt.Errorf("flash %q: bad video %q", spec, parts[2])
		}
		f.Video = media.VideoID(v)
	}
	if len(parts) == 4 {
		if f.Share, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return f, fmt.Errorf("flash %q: bad share %q", spec, parts[3])
		}
	}
	return f, nil
}

// parseWindow reads "from_hours:to_hours:factor", e.g. "2:4:0".
func parseWindow(spec string) (workload.Window, error) {
	var w workload.Window
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return w, fmt.Errorf("rate-window %q: want from_hours:to_hours:factor", spec)
	}
	from, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return w, fmt.Errorf("rate-window %q: bad from %q", spec, parts[0])
	}
	to, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return w, fmt.Errorf("rate-window %q: bad to %q", spec, parts[1])
	}
	w.From, w.To = simtime.Time(hours(from)), simtime.Time(hours(to))
	if w.Factor, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return w, fmt.Errorf("rate-window %q: bad factor %q", spec, parts[2])
	}
	return w, nil
}

func loadModel(o genOptions) (*topology.Topology, *media.Catalog, error) {
	if o.topoPath == "" || o.catPath == "" {
		return nil, nil, fmt.Errorf("%s generation needs -topo and -catalog", o.kind)
	}
	topo, err := loadTopology(o.topoPath)
	if err != nil {
		return nil, nil, err
	}
	cat, err := loadCatalog(o.catPath)
	if err != nil {
		return nil, nil, err
	}
	return topo, cat, nil
}

func loadTopology(path string) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.Decode(f)
}

func loadCatalog(path string) (*media.Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return media.Decode(f)
}
