package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/retryhttp"
)

// Shard-level failure handling: a forwarded call that finds the shard's
// primary fenced or unreachable consults the standby, drives the
// ordinary HTTP promote path, swaps the pair, and retries — the
// operator runbook of examples/failover, automated.

// forward runs one call against the shard's current primary,
// transparently failing over to the standby when the primary is gone.
func (g *Gateway) forward(ctx context.Context, sh *shard, call func(base string) error) error {
	primary := sh.current()
	err := call(primary)
	if err == nil || !failoverWorthy(err) {
		return err
	}
	if ferr := g.failover(ctx, sh, primary); ferr != nil {
		return fmt.Errorf("shard %s: %w (failover: %v)", sh.id, err, ferr)
	}
	return call(sh.current())
}

// failoverWorthy distinguishes "this node is no longer the shard's
// primary" from every other failure. Only two signals qualify: the
// stale-leadership 409 (the node was fenced or demoted), and a pure
// transport failure (every retry died without an HTTP status — a dead
// primary is indistinguishable from a partition here, which is exactly
// when the standby must be consulted). A late-arrival 409, or any other
// status, is a protocol answer from a live primary and must reach the
// caller untouched.
func failoverWorthy(err error) bool {
	var se *retryhttp.StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusConflict && strings.Contains(se.Message, api.StaleLeadership)
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// failover swaps sh to its standby. Concurrent callers coalesce on the
// shard mutex: whoever loses the race finds the swap already done and
// simply retries against the new primary. The standby is promoted
// through the ordinary HTTP path — planned (drain the primary's tail)
// first, forced only when the drain proves the primary unreachable and
// the standby had synced, the same judgment the operator runbook makes.
func (g *Gateway) failover(ctx context.Context, sh *shard, failed string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.primary != failed {
		return nil // another request already failed this shard over
	}
	if sh.standby == "" {
		return fmt.Errorf("no standby configured")
	}
	standby := sh.standby
	var st api.ReplicationStatus
	if err := retryhttp.GetJSON(ctx, g.retry, standby+"/v1/replication/status", &st); err != nil {
		return fmt.Errorf("standby unreachable: %w", err)
	}
	if st.Role != api.RolePrimary {
		if !st.Synced {
			return fmt.Errorf("standby not synced with the primary (last error %q); promoting it would serve an empty or diverged shard", st.LastError)
		}
		var prom api.PromoteResponse
		err := retryhttp.PostJSON(ctx, g.retry, standby+"/v1/replication/promote",
			api.PromoteRequest{FenceSource: true}, &prom)
		var se *retryhttp.StatusError
		if errors.As(err, &se) && se.Code == http.StatusConflict {
			// The planned promote could not confirm catch-up — the primary
			// really is gone. The standby has synced, so force the promotion
			// and accept whatever unreplicated suffix died with the primary.
			err = retryhttp.PostJSON(ctx, g.retry, standby+"/v1/replication/promote",
				api.PromoteRequest{Force: true, FenceSource: true}, &prom)
		}
		if err != nil {
			return fmt.Errorf("promote standby: %w", err)
		}
	}
	// The old primary becomes the shard's (dead) standby: if an operator
	// revives it as a follower of the new primary, the pair is whole again.
	sh.primary, sh.standby = standby, failed
	sh.failovers.Add(1)
	return nil
}
