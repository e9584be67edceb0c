package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"github.com/vodsim/vsp/internal/api"
	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/schedule"
)

// Rolling-horizon intake endpoints. Unlike the batch /v1/schedule handler,
// these are stateful: the server owns one horizon.Service and the three
// endpoints drive its reservation stream.
//
//	POST /v1/reservations    {"user": U, "video": V, "start": s, "at": a}
//	                          -> 202 intake ack (409 for late arrivals)
//	GET  /v1/plan            -> committed schedule + horizon + cost
//	POST /v1/advance         {"to": T} -> epoch result
//
// A primary also closes epochs itself: when an intake ack reports a trigger
// fired, the closer advances to the newest arrival less Options.AdvanceLag.

func (s *Server) handleReservation(w http.ResponseWriter, r *http.Request) {
	// Fencing: only the leader may accept reservations — a fenced
	// ex-primary or a follower answers with the stale-leadership error
	// so two nodes never both grow the journal.
	if !s.checkLeader(w) {
		return
	}
	var req api.ReservationRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	q, at, err := req.Screen()
	if err != nil {
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	ack, err := s.horizon.Submit(at, q)
	if err != nil {
		if errors.Is(err, horizon.ErrLateArrival) {
			httpkit.WriteErr(w, http.StatusConflict, err)
			return
		}
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if ack.EpochDue {
		s.epochDue()
	}
	httpkit.WriteJSON(w, http.StatusAccepted, api.ReservationResponse{
		Accepted:     true,
		Pending:      ack.Pending,
		PendingBytes: ack.PendingBytes,
		EpochDue:     ack.EpochDue,
		Trigger:      string(ack.Trigger),
	})
}

// PlanResponse is api.PlanResponse under the name bench/ reads; ROADMAP item 8
// retires the alias.
type PlanResponse = api.PlanResponse

// handlePlan answers from one reading of the horizon, so the schedule and
// the epoch, horizon and cost beside it always belong to the same commit.
// The body is json.Marshal(api.PlanResponse) plus a newline, byte for byte, put
// together from the schedule's kept encoding and the few fields that move
// between commits, so a read costs neither a walk over the schedule nor a
// buffer of its size, and it goes out under its Content-Length.
func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	p := s.horizon.Plan()
	rest, err := json.Marshal(p.PlanState)
	if err != nil {
		log.Printf("server: cannot encode the plan: %v", err)
		httpkit.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("encode reply: %w", err))
		return
	}
	httpkit.WriteJSONParts(w, []byte(`{"schedule":`), s.encodedSchedule(p.Schedule), []byte(`,`), rest[1:], []byte("\n"))
}

// encodedPlan is a committed schedule and its JSON. Immutable once published.
type encodedPlan struct {
	sched *schedule.Schedule
	blob  []byte
}

// encodedSchedule returns json.Marshal(sched), encoded at the first call for
// a schedule and kept for the later ones. A committed schedule is never
// modified, and every commit, installed snapshot and recovery brings a new
// one (horizon.Plan), so the pointer says whether the kept bytes are still
// its encoding. They are never written again: a reply in flight across a
// commit finishes with the bytes it started with, and the next encoding goes
// into a buffer of its own, sized from them with an eighth to spare for what
// the commit added. Readers that find a new schedule at the same instant may
// each encode it once; the holder stored last serves the reads that follow.
func (s *Server) encodedSchedule(sched *schedule.Schedule) []byte {
	e := s.plan.Load()
	if e != nil && e.sched == sched {
		return e.blob
	}
	var last int
	if e != nil {
		last = len(e.blob)
	}
	blob := sched.AppendJSON(make([]byte, 0, last+last/8))
	s.plan.Store(&encodedPlan{sched: sched, blob: blob})
	return blob
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if !s.checkLeader(w) {
		return
	}
	var req api.AdvanceRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	t0 := time.Now()
	res, err := s.horizon.Advance(r.Context(), req.To)
	if err != nil {
		httpkit.WriteErr(w, schedulingStatus(err), err)
		return
	}
	s.committed(res, t0)
	httpkit.WriteJSON(w, http.StatusOK, res)
}

// committed counts an epoch that began at t0 in /v1/stats.
func (s *Server) committed(res *api.EpochResult, t0 time.Time) {
	s.advances.Add(1)
	s.advanceNanos.Add(int64(time.Since(t0)))
	s.resolutionMu.Lock()
	s.resolution.Add(res.Resolution)
	s.resolutionMu.Unlock()
}

// epochDue starts a close when a trigger fires, or, while one runs, marks
// another due after it: at most one close is in flight, and the triggers
// that fire during it fold into the next.
func (s *Server) epochDue() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closeCtx.Err() != nil {
		return // closed
	}
	if s.closing {
		s.closeAgain = true
		return
	}
	s.closing = true
	s.closeWG.Add(1)
	go func() {
		defer s.closeWG.Done()
		for {
			s.closeEpoch()
			s.closeMu.Lock()
			again := s.closeAgain && s.closeCtx.Err() == nil
			s.closing, s.closeAgain = again, false
			s.closeMu.Unlock()
			if !again {
				return
			}
		}
	}()
}

// closeEpoch closes the epoch at the newest arrival less the lag the way POST
// /v1/advance closes one: in an admission slot, under the request budget,
// journaled, shipped to the followers and counted in /v1/stats. A follower
// closes nothing: its epochs are its primary's advance records. A failed
// close commits nothing, and the next trigger tries again.
func (s *Server) closeEpoch() {
	if !s.lead.IsPrimary() {
		return
	}
	if s.limiter != nil {
		if !s.limiter.Acquire(s.closeCtx) {
			return
		}
		defer s.limiter.Release()
	}
	ctx := s.closeCtx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	t0 := time.Now()
	res, err := s.horizon.AdvanceBehind(ctx, s.advanceLag)
	switch {
	case err != nil && s.closeCtx.Err() == nil:
		log.Printf("server: epoch close: %v", err)
	case res != nil:
		s.committed(res, t0)
	}
}
