// Sharded intake: a routing gateway spreads reservation traffic across
// three independent horizon shards while presenting the single-server
// surface. This example walks the tier's whole story in one process:
//
//  1. start three shards — two in-memory, one a durable primary with a
//     warm standby shipping its WAL — behind a gateway routing by the
//     locality policy (each neighborhood's region owns a shard),
//  2. submit the early part of a reservation trace and show how the
//     policy spread it,
//  3. broadcast an epoch advance and merge the per-shard plans,
//  4. kill the durable shard's primary mid-trace and let the gateway
//     promote the standby by itself,
//  5. finish the trace and validate the final merged schedule against
//     the full workload — no accepted reservation was lost.
//
// The placement policies' load behavior under overload (shed-rate
// comparison on a skewed workload) is measured in
// internal/gateway/study_test.go.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	vsp "github.com/vodsim/vsp"
	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
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
		Storages: 6, UsersPerStorage: 4, Capacity: vsp.GB(6),
	}, 31)
	catalog, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 24, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := vsp.GenerateWorkload(topo, catalog, vsp.WorkloadConfig{Seed: 32})
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Start != reqs[j].Start {
			return reqs[i].Start < reqs[j].Start
		}
		return reqs[i].User < reqs[j].User
	})
	model := cost.NewUniformModel(topo, catalog, 5, 500)
	ctx := context.Background()
	var retry retryhttp.Options

	// Shards s0 and s2 are plain in-memory nodes; s1 journals to disk and
	// feeds a warm standby, so it is the one that can survive a kill.
	s0, err := server.NewWithOptions(model, server.Options{ShardID: "s0"})
	if err != nil {
		log.Fatal(err)
	}
	s0URL, stop0 := serve(s0)
	defer stop0()

	primaryDir, err := os.MkdirTemp("", "vsp-shard1-primary-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(primaryDir)
	standbyDir, err := os.MkdirTemp("", "vsp-shard1-standby-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(standbyDir)
	s1, err := server.NewWithOptions(model, server.Options{ShardID: "s1", DataDir: primaryDir})
	if err != nil {
		log.Fatal(err)
	}
	s1URL, stop1 := serve(s1)
	s1standby, err := server.NewWithOptions(model, server.Options{
		ShardID: "s1", DataDir: standbyDir,
		ReplicateFrom: s1URL, ReplicateEvery: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	s1standbyURL, stopStandby := serve(s1standby)
	defer stopStandby()
	s1standby.StartReplication(ctx)

	s2, err := server.NewWithOptions(model, server.Options{ShardID: "s2"})
	if err != nil {
		log.Fatal(err)
	}
	s2URL, stop2 := serve(s2)
	defer stop2()

	gw, err := gateway.New(gateway.Config{
		Shards: []gateway.ShardConfig{
			{ID: "s0", Primary: s0URL},
			{ID: "s1", Primary: s1URL, Standby: s1standbyURL},
			{ID: "s2", Primary: s2URL},
		},
		Policy: gateway.Locality(),
		Topo:   topo,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	gwURL, stopGW := serve(gw)
	defer stopGW()
	fmt.Printf("gateway %s routing 3 shards by locality\n", gwURL)

	submit := func(r vsp.Request) {
		err := retryhttp.PostJSON(ctx, retry, gwURL+"/v1/reservations",
			api.ReservationRequest{User: r.User, Video: r.Video, Start: r.Start}, nil)
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
	}
	advance := func(to vsp.Time) gateway.AdvanceResponse {
		var res gateway.AdvanceResponse
		if err := retryhttp.PostJSON(ctx, retry, gwURL+"/v1/advance", api.AdvanceRequest{To: to}, &res); err != nil {
			log.Fatalf("advance: %v", err)
		}
		return res
	}
	stats := func() gateway.StatsResponse {
		var st gateway.StatsResponse
		if err := retryhttp.GetJSON(ctx, retry, gwURL+"/v1/stats", &st); err != nil {
			log.Fatalf("stats: %v", err)
		}
		return st
	}

	split := 2 * len(reqs) / 3
	fmt.Printf("\nphase 1: %d reservations through the gateway\n", split)
	for _, r := range reqs[:split] {
		submit(r)
	}
	for _, sh := range stats().Shards {
		fmt.Printf("  shard %s: %d routed (region of its neighborhoods)\n", sh.ID, sh.Routed)
	}

	res := advance(reqs[split-1].Start)
	fmt.Printf("\nbroadcast advance: epoch %d, %d admitted across %d shards, merged cost %v\n",
		res.Epoch, res.Admitted, len(res.Shards), res.Cost)

	// The standby's own readiness can lag one poll period behind the
	// primary's journal, so compare applied sequences across the pair
	// before pulling the plug — exactly what an operator's runbook (or
	// the gateway's non-forced promote) would check.
	fmt.Println("\nwaiting for s1's standby to catch up, then killing s1's primary...")
	var pst api.ReplicationStatus
	if err := retryhttp.GetJSON(ctx, retry, s1URL+"/v1/replication/status", &pst); err != nil {
		log.Fatal(err)
	}
	for {
		var st api.ReplicationStatus
		if err := retryhttp.GetJSON(ctx, retry, s1standbyURL+"/v1/replication/status", &st); err == nil &&
			st.Synced && st.AppliedSeq >= pst.AppliedSeq {
			fmt.Printf("  standby caught up: applied seq %d of %d\n", st.AppliedSeq, pst.AppliedSeq)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop1()
	_ = s1.Close()

	fmt.Printf("phase 2: %d reservations through the gateway\n", len(reqs)-split)
	for _, r := range reqs[split:] {
		submit(r)
	}
	end := reqs[len(reqs)-1].Start.Add(vsp.Hour)
	res = advance(end)
	fmt.Printf("final advance: epoch %d, %d admitted, merged cost %v\n",
		res.Epoch, res.Admitted, res.Cost)

	st := stats()
	fmt.Printf("\nfailovers: %d\n", st.Failovers)
	for _, sh := range st.Shards {
		fmt.Printf("  shard %s now serves from %s (role %s)\n", sh.ID, sh.Primary, sh.Role)
	}
	if st.Failovers != 1 {
		fmt.Println("EXPECTED EXACTLY ONE FAILOVER — this is a bug")
		os.Exit(1)
	}

	var plan gateway.PlanResponse
	if err := retryhttp.GetJSON(ctx, retry, gwURL+"/v1/plan", &plan); err != nil {
		log.Fatal(err)
	}
	if plan.Pending != 0 {
		fmt.Printf("PLAN STILL PENDING %d — this is a bug\n", plan.Pending)
		os.Exit(1)
	}
	if err := plan.Schedule.Validate(topo, catalog, workload.Set(reqs)); err != nil {
		fmt.Printf("MERGED PLAN INVALID: %v\n", err)
		os.Exit(1)
	}
	blob, _ := json.Marshal(plan.Schedule)
	fmt.Printf("\nmerged plan: %d reservations served, cost %v, %d bytes of schedule JSON\n",
		len(reqs), plan.Cost, len(blob))
	fmt.Println("merged schedule validates against the full workload — nothing lost ✓")

	// A second read with no commit between finds every shard's schedule
	// bytes unchanged: nothing is indexed or merged again.
	if err := retryhttp.GetJSON(ctx, retry, gwURL+"/v1/plan", nil); err != nil {
		log.Fatal(err)
	}
	ps := stats().Plan
	fmt.Printf("plan reads: %d, %d shard schedules replaced and %d merges — a read costs what changed since the last\n",
		ps.Reads, ps.ShardDecodes, ps.Merges)
}
