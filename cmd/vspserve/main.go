// Command vspserve runs the Video-On-Reservation scheduling service over
// HTTP for a fixed infrastructure: it takes reservations and answers with a
// priced schedule (internal/server's package comment is the route table). It
// shuts down gracefully on SIGINT or SIGTERM, draining in-flight requests for
// up to 10 seconds.
//
// It serves no simulation or billing: to execute a schedule it returned,
// inject faults into it, repair it or audit its bill, run vspsim on it.
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
//	curl -s localhost:8080/v1/topology
//	curl -s -X POST localhost:8080/v1/schedule \
//	     -d '{"requests":[{"user":0,"video":3,"start":3600}]}'
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
	"net/http"
	"os"
	"time"

	"github.com/vodsim/vsp/internal/chaos"
	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/server"
	"github.com/vodsim/vsp/internal/wal"
)

func main() {
	var (
		topoPath    = flag.String("topo", "", "topology JSON (required)")
		catPath     = flag.String("catalog", "", "catalog JSON (required)")
		srate       = flag.Float64("srate", 5, "storage charging rate ($/GB·hour)")
		nrate       = flag.Float64("nrate", 500, "network charging rate ($/GB)")
		addr        = flag.String("addr", ":8080", "listen address")
		idleTimeout = flag.Duration("idle-timeout", 120*time.Second, "keep-alive connection idle timeout")
		reqTimeout  = flag.Duration("request-timeout", server.DefaultRequestTimeout, "handling budget of the requests that can be stopped (/v1/schedule, /v1/advance, a promotion's drain), set as the deadline on their request context: the handler itself notices it and answers 503 + Retry-After, and nothing is cut off and left running, so a reply always says what happened")
		workers     = flag.Int("workers", 0, "scheduling worker pool size per request (0 = GOMAXPROCS, 1 = sequential; schedules are identical for any value)")
		dataDir     = flag.String("data-dir", "", "durable state directory for the reservation intake (empty = in-memory, state lost on restart)")
		fsync       = flag.String("fsync", "always", "journal fsync policy: always (no acknowledged reservation ever lost) or never (flushing is left to the OS)")
		snapEvery   = flag.Int("snapshot-every", horizon.DefaultSnapshotEvery, "journal compaction period in committed epochs (negative disables snapshots)")
		epochReqs   = flag.Int("epoch-requests", 0, "report an epoch due after this many pending reservations (0 = no intake trigger); the intake ack carries epoch_due so clients like vspload or a vspgateway know when to advance")
		maxInFlight = flag.Int("max-in-flight", server.DefaultMaxInFlight, "admission-control bound on concurrent requests; excess load is shed with 429 + Retry-After (negative disables)")
		role        = flag.String("role", "primary", "serving role: primary or follower (forced to follower by -replicate-from)")
		shardID     = flag.String("shard-id", "", "shard label reported in the /v1/stats shard block when this node serves behind a vspgateway tier")
		replFrom    = flag.String("replicate-from", "", "primary base URL to ship the WAL from; makes this node a warm standby")
		replEvery   = flag.Duration("replicate-every", 0, "idle poll period of the WAL shipper (0 = default; a backlog drains continuously)")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec wrapped around the HTTP surface, e.g. 'latency=20ms..80ms;err=0.2:503' (see internal/chaos.ParseSpec; testing only)")
		chaosSeed   = flag.Int64("chaos-seed", 1, "seed for -chaos fault decisions (same seed + same traffic = same faults)")
	)
	flag.Parse()
	if *topoPath == "" || *catPath == "" {
		fmt.Fprintln(os.Stderr, "vspserve: -topo and -catalog are required")
		os.Exit(1)
	}
	nodeRole, err := replica.ParseRole(*role)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	if nodeRole == replica.RolePrimary && *replFrom != "" {
		// Not an error worth dying over, but worth being explicit about:
		// shipping another node's WAL makes this node a follower.
		nodeRole = replica.RoleFollower
		log.Printf("vspserve: -replicate-from set; running as follower of %s", *replFrom)
	}
	fsyncPolicy, err := wal.ParseFsyncPolicy(*fsync)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	topo, err := cli.LoadTopology(*topoPath)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	cat, err := cli.LoadCatalog(*catPath)
	if err != nil {
		log.Fatalf("vspserve: %v", err)
	}
	model := cli.BuildModel(topo, cat, *srate, *nrate)
	api, err := server.NewWithOptions(model, server.Options{
		RequestTimeout: *reqTimeout,
		DataDir:        *dataDir,
		MaxInFlight:    *maxInFlight,
		Role:           nodeRole,
		ShardID:        *shardID,
		ReplicateFrom:  *replFrom,
		ReplicateEvery: *replEvery,
		Horizon: horizon.Config{
			Workers:       *workers,
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
	var handler http.Handler = api
	if *chaosSpec != "" {
		rules, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("vspserve: -chaos: %v", err)
		}
		inj := chaos.New(*chaosSeed, rules...)
		handler = inj.Middleware(handler)
		log.Printf("vspserve: CHAOS ENABLED — %d fault rule(s), seed %d; this node will misbehave on purpose", len(rules), *chaosSeed)
	}
	if *replFrom != "" {
		// Shipping stops at promotion, or when Serve closes the API.
		api.StartReplication(context.Background())
		log.Printf("vspserve: shipping WAL from %s (GET /readyz reports catch-up; promote with POST /v1/replication/promote)", *replFrom)
	}
	log.Printf("vspserve: %d storages, %d users, %d titles", topo.NumStorages(), topo.NumUsers(), cat.Len())
	if err := httpkit.Serve(context.Background(), "vspserve", *addr, handler, *idleTimeout, api.Close); err != nil {
		log.Fatalf("vspserve: %v", err)
	}
}
