package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/replica"
	"github.com/vodsim/vsp/internal/retryhttp"
)

// Replication & failover endpoints. A primary serves its WAL tail; a
// follower ships it in the background (StartReplication) and reports
// readiness only once caught up. Leadership is fenced by epoch: every
// stateful intake handler refuses on a non-primary with the
// stale-leadership error, and the fence endpoint demotes a node under a
// newer epoch.
//
//	GET  /readyz                    200 once serviceable, else 503 + lag
//	GET  /v1/replication/wal        ?after=N&epoch=E&max=M -> record batch
//	GET  /v1/replication/status     node's replication status
//	POST /v1/replication/fence      {"epoch": E} -> demote under E
//	POST /v1/replication/promote    {"force": bool, "fence_source": bool}

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

// replStatus assembles the node's replication status and whether it is
// serviceable: a primary always is (recovery completed at construction
// or the server would not exist); a follower only once its shipper has
// synced and left no lag.
func (s *Server) replStatus() (replica.Status, bool) {
	if s.shipper != nil && !s.lead.IsPrimary() {
		st := s.shipper.Status()
		return st, st.Synced && st.CaughtUp
	}
	st := replica.Status{
		Role:       s.lead.Role().String(),
		Epoch:      s.lead.Epoch(),
		AppliedSeq: s.horizon.AppliedSeq(),
	}
	if s.shipper != nil {
		st.Source = s.shipper.Source()
	}
	if s.lead.IsPrimary() {
		st.Synced, st.CaughtUp = true, true
		return st, true
	}
	return st, false
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

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready  bool           `json:"ready"`
	Reason string         `json:"reason,omitempty"`
	Status replica.Status `json:"status"`
}

// handleReady is the load-balancer readiness probe: distinct from
// /healthz (liveness), it answers 503 while the node is alive but not
// serviceable — a follower still replaying the primary's journal — so
// traffic is not routed to a node that would reject or misserve it.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st, ready := s.replStatus()
	resp := ReadyResponse{Ready: ready, Status: st}
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
		default:
			resp.Reason = "follower without a replication source"
		}
	}
	httpkit.WriteJSON(w, code, resp)
}

func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	st, _ := s.replStatus()
	httpkit.WriteJSON(w, http.StatusOK, st)
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

// handleReplWAL serves one replication batch: the journal records after
// the requested sequence, or a full-state snapshot when those records
// were compacted away. The request's epoch parameter is the fencing
// token: a higher epoch proves this node was superseded and demotes it
// on the spot; a node that is not primary answers with the
// stale-leadership error.
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
	s.lead.Observe(reqEpoch) // a newer epoch fences this node
	if err := s.lead.CheckPrimary(); err != nil {
		httpkit.WriteErr(w, http.StatusConflict, err)
		return
	}
	tail, err := s.horizon.TailAfter(after, int(max))
	if err != nil {
		if errors.Is(err, horizon.ErrNotDurable) {
			httpkit.WriteErr(w, http.StatusNotImplemented,
				fmt.Errorf("replication requires a durable primary (start it with -data-dir): %w", err))
			return
		}
		httpkit.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	batch := replica.Batch{
		LeaderEpoch: s.lead.Epoch(),
		LastSeq:     tail.LastSeq,
		Snapshot:    tail.Snapshot,
		SnapshotSeq: tail.SnapshotSeq,
	}
	for _, rec := range tail.Records {
		batch.Records = append(batch.Records, replica.FromWAL(rec))
	}
	httpkit.WriteJSON(w, http.StatusOK, batch)
}

// FenceRequest is the POST /v1/replication/fence body.
type FenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

// FenceResponse is the POST /v1/replication/fence reply.
type FenceResponse struct {
	Fenced bool   `json:"fenced"`
	Epoch  uint64 `json:"epoch"`
}

// handleFence demotes this node under a newer leadership epoch: its
// intake immediately starts rejecting with the stale-leadership error.
// A fence that does not supersede the node's epoch is itself stale and
// rejected, so an old primary cannot fence the node that replaced it.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req FenceRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	if err := s.lead.Fence(req.Epoch); err != nil {
		httpkit.WriteErr(w, http.StatusConflict, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, FenceResponse{Fenced: true, Epoch: req.Epoch})
}

// drainForPromoteTimeout bounds the final catch-up drain a non-forced
// promotion performs against the primary.
const drainForPromoteTimeout = 10 * time.Second

// PromoteRequest is the POST /v1/replication/promote body. Force skips
// the final drain and caught-up check (for when the primary is
// unreachable and the operator accepts losing the unreplicated suffix —
// acknowledged reservations included, which is why it is never the
// default).
// FenceSource additionally fences the old primary, best-effort, under
// the new epoch.
type PromoteRequest struct {
	Force       bool `json:"force,omitempty"`
	FenceSource bool `json:"fence_source,omitempty"`
}

// PromoteResponse is the POST /v1/replication/promote reply.
type PromoteResponse struct {
	Promoted         bool   `json:"promoted"`
	Epoch            uint64 `json:"epoch"`
	AppliedSeq       uint64 `json:"applied_seq"`
	SourceFenced     bool   `json:"source_fenced,omitempty"`
	SourceFenceError string `json:"source_fence_error,omitempty"`
}

// handlePromote turns a caught-up follower into the serving primary:
// shipping is stopped first (no batch may apply once promotion begins),
// the replicated committed schedule is put to the commit predicate once
// more — the bar every applied epoch and installed snapshot already passed,
// and the one Recover applies — and only then is the leadership epoch
// bumped. On any refusal the shipper is restarted, so a failed promotion
// leaves a functioning follower.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
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
		if st := s.shipper.Status(); !st.Synced || !st.CaughtUp {
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
	resp := PromoteResponse{Promoted: true, Epoch: epoch, AppliedSeq: s.horizon.AppliedSeq()}
	if req.FenceSource && s.shipper != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		err := retryhttp.PostJSON(ctx, retryhttp.Options{MaxAttempts: 3},
			s.shipper.Source()+"/v1/replication/fence", FenceRequest{Epoch: epoch}, nil)
		if err != nil {
			resp.SourceFenceError = err.Error()
		} else {
			resp.SourceFenced = true
		}
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}
