// Command vspserve runs the Video-On-Reservation reservation intake over
// HTTP for a fixed infrastructure: it takes reservations, plans them when an
// epoch closes and serves the committed, priced plan (internal/server's
// package comment is the route table). It shuts down gracefully on SIGINT or
// SIGTERM, draining in-flight requests for up to 10 seconds.
//
// It solves no stateless batch and serves no simulation or billing: an
// offline batch is vspsched's, and to execute a plan, inject faults into it,
// repair it or audit its bill, run vspsim on it.
//
// With -data-dir the rolling-horizon reservation intake is durable: every
// accepted reservation and committed epoch is journaled to a write-ahead
// log (fsync policy per -fsync) and compacted into snapshots, and a
// restart recovers the committed schedule — held to the same predicate an
// epoch commit is — instead of losing it.
//
// With -replicate-from the node runs as a warm standby: it ships the
// primary's WAL into its own (ideally durable) horizon service, answers
// 503 on GET /readyz until caught up, and can be promoted to primary with
// POST /v1/replication/promote when the primary fails. Until promoted it
// rejects stateful intake with the stale-leadership error.
//
// Usage:
//
//	vspserve -topo topo.json -catalog catalog.json -srate 5 -nrate 500 \
//	         -addr :8080 -data-dir /var/lib/vsp -fsync always
//
// then:
//
//	curl -s -X POST localhost:8080/v1/reservations -d '{"user":0,"video":3,"start":3600}'
//	curl -s -X POST localhost:8080/v1/advance -d '{"to":7200}'
//	curl -s localhost:8080/v1/plan
//
// Standby for the node above (same topology and catalog):
//
//	vspserve -topo topo.json -catalog catalog.json -addr :8081 \
//	         -data-dir /var/lib/vsp-standby \
//	         -replicate-from http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/cost"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/wal"
)

func main() {
	var (
		topoPath    = flag.String("topo", "", "topology JSON (required)")
		catPath     = flag.String("catalog", "", "catalog JSON (required)")
		srate       = flag.Float64("srate", 5, "storage charging rate ($/GB·hour)")
		nrate       = flag.Float64("nrate", 500, "network charging rate ($/GB)")
		addr        = flag.String("addr", ":8080", "listen address")
		reqTimeout  = flag.Duration("request-timeout", server.DefaultRequestTimeout, "handling budget of the requests that can be stopped (/v1/advance, a promotion's drain), set as the deadline on their request context: the handler itself notices it and answers 503 + Retry-After, and nothing is cut off and left running, so a reply always says what happened")
		dataDir     = flag.String("data-dir", "", "durable state directory for the reservation intake (empty = in-memory, state lost on restart)")
		fsync       = flag.String("fsync", "always", "journal fsync policy: always (no acknowledged reservation ever lost) or never (flushing is left to the OS)")
		snapEvery   = flag.Int("snapshot-every", horizon.DefaultSnapshotEvery, "journal compaction period in committed epochs (negative disables snapshots)")
		epochReqs   = flag.Int("epoch-requests", 0, "close an epoch after this many pending reservations (0 = no intake trigger: epochs close only on POST /v1/advance); the close targets the newest arrival less -advance-lag-hours, and the intake ack reports the trigger as epoch_due")
		advanceLagH = flag.Float64("advance-lag-hours", 1, "hold the target of a triggered epoch close this many hours behind the newest accepted arrival, so stragglers never land inside the frozen window")
		maxInFlight = flag.Int("max-in-flight", server.DefaultMaxInFlight, "admission-control bound on concurrent requests; excess load is shed with 429 + Retry-After (negative disables)")
		shardID     = flag.String("shard-id", "", "shard label reported in the /v1/stats shard block when this node serves behind a vspgateway tier")
		replFrom    = flag.String("replicate-from", "", "primary base URL to ship the WAL from; makes this node a warm standby")
	)
	flag.Parse()
	if *topoPath == "" || *catPath == "" {
		fmt.Fprintln(os.Stderr, "vspserve: -topo and -catalog are required")
		os.Exit(1)
	}
	fsyncPolicy, err := wal.ParseFsyncPolicy(*fsync)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	// A lag is whole seconds in an int64; a negative one the server refuses.
	lagSeconds := *advanceLagH * float64(simtime.Hour)
	if math.IsNaN(lagSeconds) || math.Abs(lagSeconds) >= math.MaxInt64 {
		log.Fatalf("vspserve: -advance-lag-hours %v is out of range: a lag is a finite number of hours, at most %.3g", *advanceLagH, math.MaxInt64/float64(simtime.Hour))
	}
	topo, err := cli.LoadTopology(*topoPath)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	cat, err := cli.LoadCatalog(*catPath)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	model := cost.NewUniformModel(topo, cat, *srate, *nrate)
	api, err := server.NewWithOptions(model, server.Options{
		RequestTimeout: *reqTimeout,
		DataDir:        *dataDir,
		MaxInFlight:    *maxInFlight,
		ShardID:        *shardID,
		ReplicateFrom:  *replFrom,
		AdvanceLag:     simtime.Duration(lagSeconds),
		Horizon: horizon.Config{
			Fsync:         fsyncPolicy,
			SnapshotEvery: *snapEvery,
			EpochRequests: *epochReqs,
		},
	})
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	if *dataDir != "" {
		if st := api.Recovery(); st.Recovered {
			log.Printf("vspserve: recovered durable state from %s (snapshot=%v, replayed %d submits + %d advances)",
				*dataDir, st.SnapshotLoaded, st.ReplayedSubmits, st.ReplayedAdvances)
		} else {
			log.Printf("vspserve: durable intake journaling to %s (fsync=%s)", *dataDir, fsyncPolicy)
		}
		if st := api.Recovery(); st.TailTruncated {
			// A torn tail means the process died mid-append; the discarded
			// suffix was never acknowledged, so no accepted reservation was
			// lost — but the operator should know the crash was mid-write.
			// The count is also exported as recovery.tail_truncations in
			// GET /v1/stats.
			log.Printf("vspserve: WARNING: journal tail was torn mid-record and truncated on recovery (%d truncation(s) this recovery); the partial record was never acknowledged",
				st.TailTruncations)
		}
	}
	if *replFrom != "" {
		// Shipping stops at promotion, or when Serve closes the API.
		api.StartReplication(context.Background())
		log.Printf("vspserve: shipping WAL from %s (GET /readyz reports catch-up; promote with POST /v1/replication/promote)", *replFrom)
	}
	log.Printf("vspserve: %d storages, %d users, %d titles", topo.NumStorages(), topo.NumUsers(), cat.Len())
	if err := httpkit.Serve(context.Background(), "vspserve", *addr, api, api.Close); err != nil {
		log.Fatalf("vspserve: %v", err)
	}
}
