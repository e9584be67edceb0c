// Failover: a primary intake node journals every accepted reservation to
// its write-ahead log; a warm standby ships that log over HTTP into its
// own durable service and reports readiness once caught up. This example
// walks the full life of a planned failover in one process:
//
//  1. submit the early half of a reservation trace to the primary,
//  2. wait for the standby's GET /readyz to turn 200,
//  3. promote the standby (which fences the old primary under the new
//     leadership epoch),
//  4. show the fenced primary rejecting intake with the stale-leadership
//     error,
//  5. finish the trace on the new primary,
//
// and finally verifies the punchline: the failed-over plan is
// byte-identical to an uninterrupted single-node run of the same trace.
package main

import (
	"bytes"
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
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/retryhttp"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/workload"
)

// serve binds srv to a loopback port and returns its base URL.
func serve(srv *server.Server) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }
}

func main() {
	topo := vsp.MetroTopology(vsp.GenConfig{
		Storages: 4, UsersPerStorage: 6, Capacity: vsp.GB(8),
	}, 21)
	catalog, err := vsp.GenerateCatalog(vsp.CatalogConfig{Titles: 24, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := vsp.GenerateWorkload(topo, catalog, vsp.WorkloadConfig{Seed: 22})
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

	primaryDir, err := os.MkdirTemp("", "vsp-primary-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(primaryDir)
	standbyDir, err := os.MkdirTemp("", "vsp-standby-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(standbyDir)

	primary, err := server.NewWithOptions(model, server.Options{DataDir: primaryDir})
	if err != nil {
		log.Fatal(err)
	}
	primaryURL, stopPrimary := serve(primary)
	defer stopPrimary()

	standby, err := server.NewWithOptions(model, server.Options{
		DataDir:        standbyDir,
		ReplicateFrom:  primaryURL,
		ReplicateEvery: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	standbyURL, stopStandby := serve(standby)
	defer stopStandby()

	ctx := context.Background()
	standby.StartReplication(ctx)
	var retry retryhttp.Options

	// The reference for the punchline: the same trace, one node, no
	// failover. Reservations arrive at their start time; the plan is
	// committed in two epochs, split exactly where the failover will be.
	reference := horizon.New(model, horizon.Config{})
	submit := func(base string, r workload.Request) {
		var ack api.ReservationResponse
		err := retryhttp.PostJSON(ctx, retry, base+"/v1/reservations",
			api.ReservationRequest{User: r.User, Video: r.Video, Start: r.Start}, &ack)
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		if _, err := reference.Submit(r.Start, r); err != nil {
			log.Fatalf("reference submit: %v", err)
		}
	}
	advance := func(base string, to simtime.Time) {
		var res api.EpochResult
		if err := retryhttp.PostJSON(ctx, retry, base+"/v1/advance", api.AdvanceRequest{To: to}, &res); err != nil {
			log.Fatalf("advance: %v", err)
		}
		if _, err := reference.Advance(ctx, to); err != nil {
			log.Fatalf("reference advance: %v", err)
		}
		fmt.Printf("  epoch %d committed at horizon %v: %d admitted, cost %v\n",
			res.Epoch, res.Horizon, res.Admitted, res.Cost)
	}

	split := len(reqs) / 2
	fmt.Printf("phase 1: %d reservations to the primary (%s)\n", split, primaryURL)
	for _, r := range reqs[:split] {
		submit(primaryURL, r)
	}
	advance(primaryURL, reqs[split-1].Start)

	fmt.Println("\nwaiting for the standby to catch up...")
	for {
		var ready api.ReadyResponse
		if err := retryhttp.GetJSON(ctx, retry, standbyURL+"/readyz", &ready); err == nil && ready.Ready {
			fmt.Printf("  standby ready: applied seq %d, lag %d\n",
				ready.Status.AppliedSeq, ready.Status.Lag)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Println("\npromoting the standby (fencing the old primary)...")
	var prom api.PromoteResponse
	err = retryhttp.PostJSON(ctx, retry, standbyURL+"/v1/replication/promote",
		api.PromoteRequest{FenceSource: true}, &prom)
	if err != nil {
		log.Fatalf("promote: %v", err)
	}
	fmt.Printf("  promoted at epoch %d (applied seq %d, old primary fenced: %v)\n",
		prom.Epoch, prom.AppliedSeq, prom.SourceFenced)

	// The fenced ex-primary now refuses intake: any client still pointed
	// at it gets the stale-leadership error instead of a silent fork.
	r0 := reqs[split]
	err = retryhttp.PostJSON(ctx, retry, primaryURL+"/v1/reservations",
		api.ReservationRequest{User: r0.User, Video: r0.Video, Start: r0.Start}, nil)
	fmt.Printf("  old primary rejects intake: %v\n", err)

	fmt.Printf("\nphase 2: %d reservations to the new primary (%s)\n", len(reqs)-split, standbyURL)
	for _, r := range reqs[split:] {
		submit(standbyURL, r)
	}
	advance(standbyURL, reqs[len(reqs)-1].Start)

	var plan api.PlanResponse
	if err := retryhttp.GetJSON(ctx, retry, standbyURL+"/v1/plan", &plan); err != nil {
		log.Fatal(err)
	}
	got, err := json.Marshal(plan.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	want, err := json.Marshal(reference.Committed())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal committed cost  %v (uninterrupted reference %v)\n", plan.Cost, reference.Cost())
	if bytes.Equal(got, want) {
		fmt.Println("failed-over plan is byte-identical to the uninterrupted run ✓")
	} else {
		fmt.Println("PLANS DIVERGED — this is a bug")
		os.Exit(1)
	}
}
