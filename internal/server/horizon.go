package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/vodsim/vsp/internal/horizon"
	"github.com/vodsim/vsp/internal/httpkit"
	"github.com/vodsim/vsp/internal/media"
	"github.com/vodsim/vsp/internal/schedule"
	"github.com/vodsim/vsp/internal/simtime"
	"github.com/vodsim/vsp/internal/topology"
	"github.com/vodsim/vsp/internal/units"
	"github.com/vodsim/vsp/internal/workload"
)

// Rolling-horizon intake endpoints. Unlike the batch /v1/schedule handler,
// these are stateful: the server owns one horizon.Service and the three
// endpoints drive its reservation stream.
//
//	POST /v1/reservations    {"user": U, "video": V, "start": s, "at": a}
//	                          -> 202 intake ack (409 for late arrivals)
//	GET  /v1/plan            -> committed schedule + horizon + cost
//	POST /v1/advance         {"to": T} -> epoch result

// ReservationRequest is the POST /v1/reservations body. At is the arrival
// instant on the service's reservation clock; it defaults to the start
// time (a reservation can never arrive later than it starts).
type ReservationRequest struct {
	User  topology.UserID `json:"user"`
	Video media.VideoID   `json:"video"`
	Start simtime.Time    `json:"start"`
	At    *simtime.Time   `json:"at,omitempty"`
}

// ReservationResponse is the POST /v1/reservations reply.
type ReservationResponse struct {
	Accepted     bool    `json:"accepted"`
	Pending      int     `json:"pending"`
	PendingBytes float64 `json:"pending_bytes"`
	EpochDue     bool    `json:"epoch_due"`
	Trigger      string  `json:"trigger,omitempty"`
}

func (s *Server) handleReservation(w http.ResponseWriter, r *http.Request) {
	// Fencing: only the leader may accept reservations — a fenced
	// ex-primary or a follower answers with the stale-leadership error
	// so two nodes never both grow the journal.
	if !s.checkLeader(w) {
		return
	}
	var req ReservationRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	if req.Start < 0 {
		httpkit.WriteErr(w, http.StatusBadRequest, fmt.Errorf("negative start time %v", req.Start))
		return
	}
	at := req.Start
	if req.At != nil {
		at = *req.At
	}
	ack, err := s.horizon.Submit(at, workload.Request{User: req.User, Video: req.Video, Start: req.Start})
	if err != nil {
		if errors.Is(err, horizon.ErrLateArrival) {
			httpkit.WriteErr(w, http.StatusConflict, err)
			return
		}
		httpkit.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	httpkit.WriteJSON(w, http.StatusAccepted, ReservationResponse{
		Accepted:     true,
		Pending:      ack.Pending,
		PendingBytes: ack.PendingBytes,
		EpochDue:     ack.EpochDue,
		Trigger:      string(ack.Trigger),
	})
}

// PlanResponse is the GET /v1/plan reply: the committed schedule and the
// service's rolling-horizon state.
type PlanResponse struct {
	Schedule *schedule.Schedule `json:"schedule"`
	Horizon  simtime.Time       `json:"horizon"`
	Epoch    int                `json:"epoch"`
	Pending  int                `json:"pending"`
	Cost     units.Money        `json:"cost"`
}

// handlePlan answers from one reading of the horizon, so the schedule and
// the epoch, horizon and cost beside it always belong to the same commit.
func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, PlanResponse(s.horizon.Plan()))
}

// AdvanceRequest is the POST /v1/advance body.
type AdvanceRequest struct {
	To simtime.Time `json:"to"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if !s.checkLeader(w) {
		return
	}
	var req AdvanceRequest
	if !httpkit.DecodeBody(w, r, &req) {
		return
	}
	t0 := time.Now()
	res, err := s.horizon.Advance(r.Context(), req.To)
	if err != nil {
		status := schedulingStatus(err)
		if s.horizon.Horizon() > req.To {
			status = http.StatusBadRequest
		}
		httpkit.WriteErr(w, status, err)
		return
	}
	s.advances.Add(1)
	s.advanceNanos.Add(int64(time.Since(t0)))
	s.resolutionMu.Lock()
	s.resolution.Add(res.Resolution)
	s.resolutionMu.Unlock()
	httpkit.WriteJSON(w, http.StatusOK, res)
}
