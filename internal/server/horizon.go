package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
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
// service's rolling-horizon state. The body is this struct through
// encoding/json; handlePlan says how it gets there without encoding the
// schedule at every read.
type PlanResponse struct {
	Schedule *schedule.Schedule `json:"schedule"`
	Horizon  simtime.Time       `json:"horizon"`
	Epoch    int                `json:"epoch"`
	Pending  int                `json:"pending"`
	Cost     units.Money        `json:"cost"`
}

// handlePlan answers from one reading of the horizon, so the schedule and
// the epoch, horizon and cost beside it always belong to the same commit.
// The body is json.Marshal(PlanResponse) plus a newline, byte for byte, put
// together from the schedule's kept encoding and the few fields that move
// between commits, so a read costs neither a walk over the schedule nor a
// buffer of its size, and it goes out under its Content-Length.
func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	p := s.horizon.Plan()
	rest, err := json.Marshal(struct {
		Horizon simtime.Time `json:"horizon"`
		Epoch   int          `json:"epoch"`
		Pending int          `json:"pending"`
		Cost    units.Money  `json:"cost"`
	}{p.Horizon, p.Epoch, p.Pending, p.Cost})
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
