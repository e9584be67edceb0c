// Command vspgateway runs the sharded-intake routing tier: an HTTP front
// end that spreads reservation traffic across independent horizon shards
// (each a vspserve primary, optionally backed by a warm standby) while
// presenting the single-server surface — POST /v1/reservations routes to
// one shard by the configured placement policy, POST /v1/advance
// broadcasts to all shards, and GET /v1/plan merges the per-shard
// committed schedules into one plan.
//
// When a shard is declared with a standby and its primary stops
// answering (or answers with the stale-leadership 409 after a fence),
// the gateway promotes the standby itself and re-issues the request;
// accepted reservations survive the failover.
//
// Usage:
//
//	vspgateway -addr :8070 \
//	    -shard s0=http://localhost:8080,http://localhost:8081 \
//	    -shard s1=http://localhost:8090 \
//	    -policy least-loaded
//
// Region-aware placement needs the same topology the shards serve:
//
//	vspgateway -addr :8070 -topo topo.json -policy locality \
//	    -shard s0=http://localhost:8080 -shard s1=http://localhost:8090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/vodsim/vsp/internal/cli"
	"github.com/vodsim/vsp/internal/gateway"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/topology"
)

// parseShard decodes one -shard value: "id=primaryURL[,standbyURL]".
func parseShard(v string) (gateway.ShardConfig, error) {
	id, urls, ok := strings.Cut(v, "=")
	if !ok || id == "" {
		return gateway.ShardConfig{}, fmt.Errorf("shard %q: want id=primaryURL[,standbyURL]", v)
	}
	primary, standby, _ := strings.Cut(urls, ",")
	if primary == "" {
		return gateway.ShardConfig{}, fmt.Errorf("shard %q: empty primary URL", v)
	}
	if strings.Contains(standby, ",") {
		return gateway.ShardConfig{}, fmt.Errorf("shard %q: at most one standby per shard", v)
	}
	sc := gateway.ShardConfig{ID: id, Primary: primary, Standby: standby}
	if err := sc.CheckURLs(); err != nil {
		return gateway.ShardConfig{}, fmt.Errorf("shard %q: %w", v, err)
	}
	return sc, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8070", "listen address")
		policyName  = flag.String("policy", "round-robin", "placement policy: round-robin, least-loaded, locality, or hash")
		topoPath    = flag.String("topo", "", "topology JSON; required by -policy locality, optional otherwise")
		idleTimeout = flag.Duration("idle-timeout", 120*time.Second, "keep-alive connection idle timeout")

		breakerOn    = flag.Bool("breaker", true, "eject gray-failing shards with per-shard circuit breakers")
		breakerOpen  = flag.Duration("breaker-open-for", gateway.DefaultBreakerOpenFor, "cool-off before an ejected shard is probed again")
		breakerSlow  = flag.Duration("breaker-slow-call", 0, "count shard calls slower than this as failures (gray-failure ejection; 0 = off)")
		shardTimeout = flag.Duration("shard-timeout", 0, "deadline for each shard intake call (0 = the client's own deadline only)")
	)
	var shards []gateway.ShardConfig
	flag.Func("shard", "shard spec id=primaryURL[,standbyURL] (repeatable, at least one)", func(v string) error {
		sc, err := parseShard(v)
		if err != nil {
			return err
		}
		shards = append(shards, sc)
		return nil
	})
	flag.Parse()
	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "vspgateway: at least one -shard is required")
		os.Exit(1)
	}
	policy, err := gateway.ParsePlacement(*policyName)
	if err != nil {
		log.Fatalf("vspgateway: %v", err)
	}
	var topo *topology.Topology
	if *topoPath != "" {
		if topo, err = cli.LoadTopology(*topoPath); err != nil {
			log.Fatalf("vspgateway: %v", err)
		}
	} else if *policyName == "locality" {
		log.Fatal("vspgateway: -policy locality needs -topo to map users onto regions")
	}

	gw, err := gateway.New(gateway.Config{
		Shards:       shards,
		Policy:       policy,
		Topo:         topo,
		ShardTimeout: *shardTimeout,
		Breaker: gateway.BreakerConfig{
			Disabled: !*breakerOn,
			OpenFor:  *breakerOpen,
			SlowCall: *breakerSlow,
		},
	})
	if err != nil {
		log.Fatalf("vspgateway: %v", err)
	}
	for _, sc := range shards {
		standby := "no standby"
		if sc.Standby != "" {
			standby = "standby " + sc.Standby
		}
		log.Printf("vspgateway: shard %s -> %s (%s)", sc.ID, sc.Primary, standby)
	}
	log.Printf("vspgateway: routing %d shard(s) by %s", len(shards), policy.Name())
	closeFn := func() error { gw.Close(); return nil }
	if err := httpkit.Serve(context.Background(), "vspgateway", *addr, gw, *idleTimeout, closeFn); err != nil {
		log.Fatalf("vspgateway: %v", err)
	}
}
