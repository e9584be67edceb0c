// Quickstart: build the paper's Fig. 2 scenario by hand — a warehouse, two
// intermediate storages, three users requesting the same movie at 1:00,
// 2:30 and 4:00 pm — schedule it, and compare against serving everyone
// directly from the warehouse.
package main

import (
	"fmt"
	"log"

	vsp "github.com/vodsim/vsp"
)

func main() {
	// Topology: VW — IS1 — IS2, one user in neighborhood 1, two in
	// neighborhood 2.
	b := vsp.NewTopology()
	vw := b.Warehouse("VW")
	is1 := b.Storage("IS1", vsp.GB(10))
	is2 := b.Storage("IS2", vsp.GB(10))
	b.Connect(vw, is1)
	b.Connect(is1, is2)
	b.AttachUsers(is1, 1)
	b.AttachUsers(is2, 2)
	topo, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Catalog: one 90-minute, 2.5 GB title streaming at 6 Mbps.
	catalog, err := vsp.UniformCatalog(1, vsp.GB(2.5), 90*vsp.Minute, vsp.Mbps(6))
	if err != nil {
		log.Fatal(err)
	}

	// Rates: $2/GB·hour for cache space, $200/GB per network hop.
	sys, err := vsp.NewSystem(topo, catalog, vsp.PerGBHour(2), vsp.PerGB(200))
	if err != nil {
		log.Fatal(err)
	}

	// The reservation batch: users 0, 1, 2 watch title 0 at 1:00, 2:30
	// and 4:00 pm (times measured from 1:00 pm).
	reqs := vsp.RequestSet{
		{User: 0, Video: 0, Start: 0},
		{User: 1, Video: 0, Start: vsp.Time(90 * vsp.Minute)},
		{User: 2, Video: 0, Start: vsp.Time(180 * vsp.Minute)},
	}

	out, err := sys.Schedule(reqs, vsp.SchedulerConfig{Metric: vsp.SpacePerCost})
	if err != nil {
		log.Fatal(err)
	}
	direct, err := sys.ScheduleDirect(reqs)
	if err != nil {
		log.Fatal(err)
	}

	storage, network := sys.CostSplit(out.Schedule)
	fmt.Printf("two-phase schedule: %v (storage %v + network %v)\n", out.FinalCost, storage, network)
	fmt.Printf("direct-only:        %v\n", direct.FinalCost)
	fmt.Printf("savings:            %.1f%%\n",
		100*float64(direct.FinalCost-out.FinalCost)/float64(direct.FinalCost))

	fmt.Println("\ncached copies:")
	for _, fs := range out.Schedule.Files {
		readers := fs.Readers()
		for j, c := range fs.Residencies {
			fmt.Printf("  title %d at %s: loaded %v, last read %v, serves %d request(s)\n",
				c.Video, topo.Node(c.Loc).Name, c.Load, c.LastService, len(readers[j]))
		}
	}

	// Execute the schedule on the event simulator as a sanity check.
	rep := sys.Simulate(out.Schedule)
	fmt.Printf("\nsimulated: %d streams, %d cache loads, %d violations, cost %v\n",
		rep.Streams, rep.CacheLoads, len(rep.Violations), rep.TotalCost())
}
