package httpkit

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// A value encoding/json refuses must not leave a success status over an
// empty body behind: nothing has been sent when the encode fails, so the
// reply becomes a 500 with an error body. An encodable value is untouched.
func TestWriteJSONNeverSendsAnEmptySuccess(t *testing.T) {
	for _, unencodable := range []any{
		map[string]float64{"heat": math.Inf(1)},
		struct{ C chan int }{make(chan int)},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, unencodable)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%T: status %d, want 500", unencodable, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%T: body %q is not an error object (%v)", unencodable, rec.Body.String(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%T: Content-Type %q", unencodable, ct)
		}
	}

	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, map[string]int{"pending": 3})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"pending\":3}\n" {
		t.Errorf("encodable value: status %d body %q", rec.Code, rec.Body.String())
	}
}
