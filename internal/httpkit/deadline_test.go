package httpkit

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A handler that comes back when its context expires, having written
// nothing, is answered for: 503, a JSON error body, Retry-After, and one
// more on the layer's counter.
func TestDeadlineAnswersForASilentHandler(t *testing.T) {
	h := Deadline(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		if err := r.Context().Err(); err != context.DeadlineExceeded {
			t.Errorf("context error %v, want DeadlineExceeded", err)
		}
	}), 10*time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("deadline 503 carries no Retry-After")
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] != "request timed out" {
		t.Errorf("body %q, want the timed-out JSON error", rec.Body.String())
	}
	if n := h.Exceeded(); n != 1 {
		t.Errorf("Exceeded() = %d, want 1", n)
	}
}

// A handler that ignores its context and replies late is delivered as it
// replied: whatever it did has happened, and the client is told so.
func TestDeadlineDeliversALateReply(t *testing.T) {
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(20 * time.Millisecond)
		WriteJSON(w, http.StatusOK, map[string]bool{"done": true})
	}), time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))

	if rec.Code != http.StatusOK || rec.Body.String() != "{\"done\":true}\n" {
		t.Errorf("status %d body %q, want the handler's own 200", rec.Code, rec.Body.String())
	}
	if n := h.Exceeded(); n != 0 {
		t.Errorf("Exceeded() = %d, want 0: the layer wrote nothing", n)
	}
}

// The deadline is on the context from the start, but its timer is armed by
// the first Done or Err: a handler that asks neither leaves none behind,
// and one that derives a context from it sees the deadline fire.
func TestDeadlineArmsItsTimerOnDemand(t *testing.T) {
	var ctx *deadlineCtx
	quiet := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx = r.Context().(*deadlineCtx)
		if at, ok := ctx.Deadline(); !ok || time.Until(at) > time.Hour {
			t.Errorf("Deadline() = %v, %v: want one within the hour", at, ok)
		}
		if r.Context().Value(http.ServerContextKey) != nil {
			t.Error("a recorder request has no server in its context")
		}
		w.WriteHeader(http.StatusNoContent)
	}), time.Hour)
	quiet.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if ctx.armed != nil {
		t.Error("a handler that never asked Done or Err armed the timer")
	}

	derived := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		child, cancel := context.WithCancel(r.Context())
		defer cancel()
		select {
		case <-child.Done():
		case <-time.After(5 * time.Second):
			t.Error("a context derived from the request's never saw the deadline")
		}
		WriteErr(w, http.StatusServiceUnavailable, child.Err())
	}), 10*time.Millisecond)
	rec := httptest.NewRecorder()
	derived.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("status %d Retry-After %q, want the handler's 503 decorated", rec.Code, rec.Header().Get("Retry-After"))
	}
	if n := derived.Exceeded(); n != 0 {
		t.Errorf("Exceeded() = %d, want 0: the handler answered itself", n)
	}
}
