// Load harness demo: a premiere flash crowd against a 2-shard intake
// tier. This example wires the whole workload pipeline together in one
// process:
//
//  1. build a metro topology and catalog, and describe an evening of
//     demand as a workload Pattern — a diurnal cycle with a premiere
//     flash crowd tripling the rate at hour 20 and funneling most of
//     the surge onto the premiered title,
//  2. start two horizon shards behind a routing gateway that advances
//     epochs itself (auto-advance with a lagged target),
//  3. stream the generated trace straight from the generator into the
//     closed-loop load harness (loadgen) — no trace file, no in-memory
//     request set — and replay it against the gateway,
//  4. report what the run measured: submit latency percentiles, shed
//     and late rates, per-shard routing, epoch advances,
//  5. check the flash crowd actually reached the tier: the premiered
//     title must dominate the committed plans around the premiere.
//
// The same flow works against any vspserve/vspgateway over the network:
// `vspgen -kind trace | vspload -target ...` is this example as two
// commands.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	vsp "github.com/vodsim/vsp"
	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/loadgen"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// serve binds h to a loopback port and returns its base URL.
func serve(h http.Handler) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }
}

func main() {
	topo := vsp.MetroTopology(vsp.GenConfig{
		Storages: 6, UsersPerStorage: 4, Capacity: vsp.GB(8),
	}, 41)
	catalog, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 30, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	model := cli.BuildModel(topo, catalog, 5, 500)

	// An evening of demand: prime-time diurnal swell, and at hour 20 a
	// premiere triples the arrival rate with 70% of the crowd watching
	// title 0.
	const premiere = vsp.VideoID(0)
	pattern := workload.Pattern{
		Base:     workload.Config{Alpha: 0.271, Seed: 42},
		Requests: 600,
		Span:     simtime.Day,
		Diurnal:  workload.Diurnal{Strength: 0.5},
		Flash: []workload.Flash{{
			At:       simtime.Time(20 * simtime.Hour),
			Duration: 2 * simtime.Hour,
			Boost:    2,
			Video:    premiere,
			Share:    0.7,
		}},
	}
	fmt.Println("== flash-crowd pattern ==")
	fmt.Printf("%d reservations over 24h; diurnal strength 0.5; premiere of video %d at 20h (boost 2x, share 0.7)\n\n",
		pattern.Requests, premiere)

	// Two in-memory shards behind an auto-advancing gateway.
	var shards []gateway.ShardConfig
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("s%d", i)
		srv, err := server.NewWithOptions(model, server.Options{
			ShardID: id,
			Horizon: vsp.HorizonConfig{EpochRequests: 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		url, stop := serve(srv)
		defer stop()
		defer srv.Close()
		shards = append(shards, gateway.ShardConfig{ID: id, Primary: url})
	}
	gw, err := gateway.New(gateway.Config{
		Shards:      shards,
		Policy:      gateway.Locality(),
		Topo:        topo,
		AutoAdvance: true,
		AdvanceLag:  2 * simtime.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	gwURL, stopGW := serve(gw)
	defer stopGW()
	defer gw.Close()

	// Stream the generator straight into the closed-loop harness. The
	// gateway advances epochs itself, so the harness only submits.
	trace := workload.NewPatternReader(topo, catalog, pattern, 0)
	defer trace.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:         gwURL,
		Concurrency:    8,
		DisableAdvance: true,
	}, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== load run ==")
	fmt.Printf("submitted %d in %v: %d accepted, %d shed (%.1f%%), %d late, %d errors\n",
		res.Submitted, time.Duration(res.ElapsedMS)*time.Millisecond,
		res.Accepted, res.Shed, 100*res.ShedRate, res.Late, res.Errors)
	fmt.Printf("submit latency: p50 %v  p95 %v  p99 %v  max %v\n",
		res.Submit.P50, res.Submit.P95, res.Submit.P99, res.Submit.Max)
	shardNames := make([]string, 0, len(res.ShardRouted))
	for s := range res.ShardRouted {
		shardNames = append(shardNames, s)
	}
	sort.Strings(shardNames)
	for _, s := range shardNames {
		fmt.Printf("  shard %s served %d reservations\n", s, res.ShardRouted[s])
	}

	// The gateway advanced epochs on its own; give in-flight closes a
	// moment, then force the tail of the trace through.
	time.Sleep(50 * time.Millisecond)
	finalAdvance(gwURL, simtime.Time(simtime.Day))

	// Did the premiere register? Count committed deliveries of the
	// premiered title in the merged plan.
	var plan struct {
		Schedule vsp.Schedule `json:"schedule"`
		Epoch    int          `json:"epoch"`
	}
	getJSON(gwURL+"/v1/plan", &plan)
	premiereDeliveries, others := 0, 0
	for _, fs := range plan.Schedule.Files {
		n := len(fs.Deliveries)
		if fs.Video == premiere {
			premiereDeliveries += n
		} else {
			others += n
		}
	}
	fmt.Println("\n== committed plan ==")
	fmt.Printf("epoch %d: %d deliveries of the premiered title, %d of the other %d titles\n",
		plan.Epoch, premiereDeliveries, others, catalog.Len()-1)
	if premiereDeliveries == 0 {
		log.Fatal("flash crowd never reached the plan")
	}
	fmt.Println("\nThe premiere's flash crowd flowed generator -> gateway -> shards -> plan without a trace file.")
}

func finalAdvance(base string, to simtime.Time) {
	body, _ := json.Marshal(map[string]simtime.Time{"to": to})
	resp, err := http.Post(base+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
