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

// A context the handler derives from the request's sees the deadline fire,
// and the 503 the handler then writes itself is decorated and delivered, not
// counted: the counter is for replies the layer had to make up.
func TestDeadlineReachesADerivedContext(t *testing.T) {
	h := Deadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if at, ok := r.Context().Deadline(); !ok || time.Until(at) > 10*time.Millisecond {
			t.Errorf("Deadline() = %v, %v: want one within the budget", at, ok)
		}
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
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("status %d Retry-After %q, want the handler's 503 decorated", rec.Code, rec.Header().Get("Retry-After"))
	}
	if n := h.Exceeded(); n != 0 {
		t.Errorf("Exceeded() = %d, want 0: the handler answered itself", n)
	}
}
