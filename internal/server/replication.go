package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/retryhttp"
)

// Replication & failover: WAL shipping from a serving primary to a warm
// standby, and the epoch-numbered leadership (leadership.go) that fences a
// demoted primary so two nodes never both accept submits. A primary serves
// its WAL tail; a follower's Shipper (shipper.go) long-polls it in the
// background (StartReplication), resuming from the follower's applied
// sequence, checks each record's CRC and applies it, idempotently by
// sequence, through the horizon service's replay path. A poll from a
// follower that is caught up is held until the primary journals its next
// record or replHold passes, so an acknowledged reservation reaches the
// standby one round trip after it is journaled. Every stateful
// intake handler refuses on a non-primary with the stale-leadership error.
// Promotion re-applies the commit predicate to the replicated schedule and
// bumps the epoch; the old primary, fenced under the new epoch, rejects
// all further intake.
//
//	GET  /readyz                    200 while serviceable, else 503 + reason
//	GET  /v1/replication/wal        ?after=N&epoch=E&max=M[&crc=C] -> api.Batch
//	GET  /v1/replication/status     node's replication status
//	POST /v1/replication/fence      {"epoch": E} -> demote under E
//	POST /v1/replication/promote    {"force": bool, "fence_source": bool}
//
// The epoch parameter of a WAL poll is the fencing token: a primary that
// sees a request carrying a higher epoch has provably been superseded and
// demotes itself before refusing it; a node that is not primary refuses
// with the stale-leadership error and its current epoch as a field,
// api.StaleRefusal, which the follower observes. Records travel with their WAL CRCs, so transport
// corruption is caught by the checksum that guards the disk format. A poll
// also carries the CRC of the follower's own record at its resume point; a
// primary whose record there differs, or whose last sequence is behind it,
// answers 409 api.Diverged, and the follower stops reporting itself synced.
// Only a poll that is caught up and agrees is held; every other answer
// (behind, diverged, not primary, not durable) is given at once.
//
// Split-brain is out of scope by design: fencing is cooperative (the old
// primary must be reachable to learn it was deposed). An unreachable old
// primary keeps accepting submits until an operator or load balancer cuts
// it off; preventing that without reachability needs leases or quorum,
// which this tier deliberately does not implement. DESIGN.md §12 records
// the non-goals.

// StartReplication launches the background WAL shipper on a follower
// built with Options.ReplicateFrom. It is a no-op on other nodes.
// Shipping stops when ctx is cancelled, the node is promoted, or the
// server is closed.
func (s *Server) StartReplication(ctx context.Context) {
	if s.shipper == nil {
		return
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replCancel != nil {
		return // already running
	}
	s.replCtx = ctx
	s.startShipperLocked()
}

// startShipperLocked spawns the shipper goroutine; callers hold replMu
// and have set replCtx.
func (s *Server) startShipperLocked() {
	ctx, cancel := context.WithCancel(s.replCtx)
	done := make(chan struct{})
	s.replCancel, s.replDone = cancel, done
	go func() {
		defer close(done)
		s.shipper.Run(ctx)
	}()
}

// stopReplication cancels the shipper and waits for it to exit, so no
// batch can be applied after the caller proceeds (promotion must not
// race the applier). It reports whether shipping had been started.
func (s *Server) stopReplication() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replCancel == nil {
		return false
	}
	s.replCancel()
	<-s.replDone
	s.replCancel, s.replDone = nil, nil
	return true
}

// replStatus builds a node's replication status: the one builder of
// api.ReplicationStatus, for every role. sh is the node's shipper, nil on a
// node built without a source. A primary reports itself synced and caught
// up; a follower with a shipper, what the shipper's last poll found.
func replStatus(lead *Leadership, hz *horizon.Service, sh *Shipper) api.ReplicationStatus {
	role := lead.Role()
	st := api.ReplicationStatus{Role: role.String(), Epoch: lead.Epoch()}
	if sh != nil {
		st.Source = sh.source
	}
	if role == RolePrimary || sh == nil {
		st.AppliedSeq = hz.AppliedSeq()
		st.Synced, st.CaughtUp = role == RolePrimary, role == RolePrimary
		return st
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st.AppliedSeq = hz.AppliedSeq()
	st.PrimaryLastSeq = sh.primaryLastSeq
	st.Synced = sh.synced
	st.CaughtUp = sh.caughtUp && st.AppliedSeq >= sh.primaryLastSeq
	st.RecordsApplied = sh.recordsApplied
	st.SnapshotsInstalled = sh.snapshotsInstalled
	st.LastError = sh.lastErr
	if sh.primaryLastSeq > st.AppliedSeq {
		st.Lag = sh.primaryLastSeq - st.AppliedSeq
	}
	return st
}

// readiness returns the node's replication status and whether the node is
// serviceable: a primary always is (recovery completed at construction or
// the server would not exist); a follower only while its shipper runs and
// its last poll left no lag. A fenced ex-standby ships nothing — promotion
// stopped its shipper — so it is not ready, whatever its last poll found.
func (s *Server) readiness() (api.ReplicationStatus, bool) {
	st := replStatus(s.lead, s.horizon, s.shipper)
	if st.Role == api.RolePrimary {
		return st, true
	}
	return st, s.shipping() && st.Synced && st.CaughtUp
}

// shipping reports whether the shipper goroutine is running.
func (s *Server) shipping() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.replDone == nil {
		return false
	}
	select {
	case <-s.replDone:
		return false
	default:
		return true
	}
}

// checkLeader writes the stale-leadership rejection for stateful intake
// on a non-primary and reports whether the request may proceed. 409
// mirrors the late-arrival conflict: the request is well-formed but the
// node cannot honor it, and retrying here will not help.
func (s *Server) checkLeader(w http.ResponseWriter) bool {
	if err := s.lead.CheckPrimary(); err != nil {
		httpkit.WriteErr(w, http.StatusConflict, err)
		return false
	}
	return true
}

// handleReady is the load-balancer readiness probe: distinct from
// /healthz (liveness), it answers 503 while the node is alive but not
// serviceable — a follower still replaying the primary's journal — so
// traffic is not routed to a node that would reject or misserve it.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st, ready := s.readiness()
	resp := api.ReadyResponse{Ready: ready, Status: st}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		switch {
		case st.LastError != "":
			resp.Reason = fmt.Sprintf("replication failing: %s", st.LastError)
		case !st.Synced:
			resp.Reason = "replication not yet synced with primary"
		case !st.CaughtUp:
			resp.Reason = fmt.Sprintf("replaying journal: %d records behind", st.Lag)
		case st.Source != "":
			resp.Reason = fmt.Sprintf("not shipping from %s", st.Source)
		default:
			resp.Reason = "follower without a replication source"
		}
	}
	httpkit.WriteJSON(w, code, resp)
}

func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, replStatus(s.lead, s.horizon, s.shipper))
}

// queryUint parses an optional unsigned query parameter.
func queryUint(r *http.Request, name string) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", name, v, err)
	}
	return n, nil
}

// replHold is how long a primary holds a caught-up follower's WAL poll
// waiting for the next record. An idle standby therefore sends one poll a
// hold, and a held poll keeps one admission slot on its primary.
const replHold = 250 * time.Millisecond

// handleReplWAL serves one replication batch: the journal records after
// the requested sequence, or a full-state snapshot when those records
// were compacted away. The request's epoch parameter is the fencing
// token: a higher epoch proves this node was superseded and demotes it
// on the spot; a node that is not primary answers with the
// stale-leadership error. A held poll is answered whole again when the
// hold ends, leadership included: a primary fenced during the hold refuses
// it. The hold waits on horizon.Service.Journaled, never under its lock.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	after, err := queryUint(r, "after")
	if err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	reqEpoch, err := queryUint(r, "epoch")
	if err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	max, err := queryUint(r, "max")
	if err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var crc *uint32
	if r.URL.Query().Has("crc") {
		c, err := strconv.ParseUint(r.URL.Query().Get("crc"), 10, 32)
		if err != nil {
			httpkit.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad crc: %w", err))
			return
		}
		crc = new(uint32)
		*crc = uint32(c)
	}
	s.lead.Observe(reqEpoch) // a newer epoch fences this node
	batch, code, err := s.tailAfter(after, crc, int(max))
	if err == nil && batch.LastSeq == after {
		// Caught up: hold the poll until the next record is journaled, then
		// answer it as if it had just arrived.
		t := time.NewTimer(replHold)
		select {
		case <-s.horizon.Journaled(after):
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
		batch, code, err = s.tailAfter(after, crc, int(max))
	}
	switch {
	case errors.Is(err, ErrStaleLeadership):
		// The epoch goes as a field, which the follower adopts (Shipper.poll):
		// a standby of a fenced primary then promotes past the fence. Epochs
		// only grow, so one read after the refusal is at least the one it saw.
		httpkit.WriteJSON(w, code, api.StaleRefusal{Error: err.Error(), LeaderEpoch: s.lead.Epoch()})
	case err != nil:
		httpkit.WriteErr(w, code, err)
	default:
		httpkit.WriteJSON(w, http.StatusOK, batch)
	}
}

// tailAfter is one answer to a WAL poll, checked against the node's
// leadership when it is read: the batch after the follower's resume point,
// or the refusal and its status.
func (s *Server) tailAfter(after uint64, crc *uint32, max int) (*api.Batch, int, error) {
	if err := s.lead.CheckPrimary(); err != nil {
		return nil, http.StatusConflict, err
	}
	batch, err := s.horizon.TailAfter(after, crc, max)
	switch {
	case errors.Is(err, horizon.ErrDiverged):
		return nil, http.StatusConflict, err
	case errors.Is(err, horizon.ErrNotDurable):
		return nil, http.StatusNotImplemented,
			fmt.Errorf("replication requires a durable primary (start it with -data-dir): %w", err)
	case err != nil:
		return nil, http.StatusInternalServerError, err
	}
	batch.LeaderEpoch = s.lead.Epoch()
	return batch, http.StatusOK, nil
}

// handleFence demotes this node under a newer leadership epoch: its
// intake immediately starts rejecting with the stale-leadership error.
// A fence that does not supersede the node's epoch is itself stale and
// rejected, so an old primary cannot fence the node that replaced it.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req api.FenceRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	if err := s.lead.Fence(req.Epoch); err != nil {
		httpkit.WriteErr(w, http.StatusConflict, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, api.FenceResponse{Fenced: true, Epoch: req.Epoch})
}

// drainForPromoteTimeout bounds the final catch-up drain a non-forced
// promotion performs against the primary.
const drainForPromoteTimeout = 10 * time.Second

// handlePromote turns a caught-up follower into the serving primary:
// shipping is stopped first (no batch may apply once promotion begins),
// the replicated committed schedule is put to the commit predicate once
// more — the bar every applied epoch and installed snapshot already passed,
// and the one Recover applies — and only then is the leadership epoch
// bumped. On any refusal the shipper is restarted, so a failed promotion
// leaves a functioning follower.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req api.PromoteRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	if s.lead.IsPrimary() {
		httpkit.WriteErr(w, http.StatusConflict, fmt.Errorf("already primary at epoch %d", s.lead.Epoch()))
		return
	}
	wasShipping := s.stopReplication()
	restart := func() {
		if wasShipping {
			s.replMu.Lock()
			s.startShipperLocked()
			s.replMu.Unlock()
		}
	}
	if s.shipper != nil && !req.Force {
		// Drain the primary's tail rather than trusting the shipper's
		// last-polled status: the status is point-in-time, and promoting on
		// it would silently drop every record the primary acknowledged
		// since that poll. A planned failover must lose nothing; only an
		// explicit force (primary unreachable, operator accepts the loss)
		// may skip this.
		drainCtx, cancel := context.WithTimeout(r.Context(), drainForPromoteTimeout)
		err := s.shipper.Drain(drainCtx)
		cancel()
		if err != nil {
			restart()
			httpkit.WriteErr(w, http.StatusConflict,
				fmt.Errorf("cannot confirm catch-up with primary (%v); retry, or pass force to promote anyway and lose the unreplicated suffix", err))
			return
		}
		if st := replStatus(s.lead, s.horizon, s.shipper); !st.Synced || !st.CaughtUp {
			restart()
			httpkit.WriteErr(w, http.StatusConflict,
				fmt.Errorf("follower not caught up (applied seq %d, primary last seq %d, lag %d); retry or pass force",
					st.AppliedSeq, st.PrimaryLastSeq, st.Lag))
			return
		}
	}
	if err := s.horizon.VerifyCommitted(); err != nil {
		restart()
		httpkit.WriteErr(w, http.StatusInternalServerError,
			fmt.Errorf("refusing promotion: replicated state fails the commit predicate: %w", err))
		return
	}
	epoch, err := s.lead.Promote()
	if err != nil {
		restart()
		httpkit.WriteErr(w, http.StatusConflict, err)
		return
	}
	resp := api.PromoteResponse{Promoted: true, Epoch: epoch, AppliedSeq: s.horizon.AppliedSeq()}
	if req.FenceSource && s.shipper != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		err := retryhttp.PostJSON(ctx, retryhttp.Options{MaxAttempts: 3},
			s.shipper.source+"/v1/replication/fence", api.FenceRequest{Epoch: epoch}, nil)
		if err != nil {
			resp.SourceFenceError = err.Error()
		} else {
			resp.SourceFenced = true
		}
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}
