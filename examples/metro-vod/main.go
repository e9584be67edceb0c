// Metro-VOD: the paper's motivating scenario at full scale. A metropolitan
// provider with one video warehouse and 19 neighborhood storages takes an
// evening's worth of reservations (190 subscribers, Zipf-skewed picks with
// the Dan & Sitaram video-rental calibration α = 0.271) and schedules them
// as a batch, then executes the schedule on the event simulator and prints
// an operator's report: costs, savings over naive delivery, cache activity
// and the busiest links.
package main

import (
	"fmt"
	"log"
	"sort"

	vsp "github.com/vodsim/vsp"
)

func main() {
	topo := vsp.PaperTopology(vsp.GB(5)) // 20 nodes, 10 users per neighborhood
	catalog, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 500, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := vsp.NewSystem(topo, catalog, vsp.PerGBHour(5), vsp.PerGB(500))
	if err != nil {
		log.Fatal(err)
	}

	reqs, err := vsp.GenerateWorkload(topo, catalog, vsp.WorkloadConfig{
		Alpha:   0.271,
		Window:  12 * vsp.Hour,
		Arrival: vsp.EveningPeakArrival,
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}

	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{Metric: vsp.SpacePerCost})
	if err != nil {
		log.Fatal(err)
	}
	direct, err := sys.ScheduleDirect(reqs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("reservations        %d over %d titles\n", len(reqs), len(reqs.ByVideo()))
	fmt.Printf("phase-1 cost        %v\n", out.Phase1Cost)
	fmt.Printf("overflows detected  %d (resolved via %d reschedules)\n", out.Overflows, len(out.Victims))
	fmt.Printf("final cost          %v\n", out.FinalCost)
	fmt.Printf("direct-only cost    %v\n", direct.FinalCost)
	fmt.Printf("savings             %.1f%%\n",
		100*float64(direct.FinalCost-out.FinalCost)/float64(direct.FinalCost))

	// Cache utilization per storage.
	type siteStat struct {
		name   string
		copies int
		served int
	}
	bySite := map[string]*siteStat{}
	for _, fs := range out.Schedule.Files {
		readers := fs.Readers()
		for j, c := range fs.Residencies {
			name := topo.Node(c.Loc).Name
			st := bySite[name]
			if st == nil {
				st = &siteStat{name: name}
				bySite[name] = st
			}
			st.copies++
			st.served += len(readers[j])
		}
	}
	sites := make([]*siteStat, 0, len(bySite))
	for _, st := range bySite {
		sites = append(sites, st)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].served > sites[j].served })
	fmt.Println("\nbusiest caches:")
	for i, st := range sites {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-6s %2d cached copies serving %2d requests\n", st.name, st.copies, st.served)
	}

	// Execute and report the network's hot links.
	rep := sys.Simulate(out.Schedule)
	if !rep.OK() {
		log.Fatalf("simulation violations: %v", rep.Violations)
	}
	sort.Slice(rep.Links, func(i, j int) bool { return rep.Links[i].Bytes > rep.Links[j].Bytes })
	fmt.Println("\nbusiest links:")
	for i, lu := range rep.Links {
		if i >= 5 {
			break
		}
		e := topo.Edge(lu.Edge)
		fmt.Printf("  %s--%s  %v, peak %d concurrent streams (%v)\n",
			topo.Node(e.A).Name, topo.Node(e.B).Name, lu.Bytes, lu.PeakStreams, lu.PeakRate)
	}
	fmt.Printf("\nsimulated total cost %v (matches analytic: %v)\n",
		rep.TotalCost(), rep.TotalCost().ApproxEqual(out.FinalCost, 1e-3))
}
