package httpkit

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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

// A body is exactly one JSON value: what follows it other than whitespace is
// the client's error, not a second request silently dropped. The cap's 413
// and the 400 for everything else malformed are unchanged.
func TestDecodeBodyTakesExactlyOneValue(t *testing.T) {
	type reservation struct {
		User int `json:"user"`
	}
	const limit = 64
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"one value", `{"user":7}`, http.StatusOK},
		{"value and whitespace", "{\"user\":7} \n\t\r\n", http.StatusOK},
		{"two values", `{"user":7}` + "\n" + `{"user":8}`, http.StatusBadRequest},
		{"value and garbage", `{"user":7}]`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"over the cap", `{"user":7,"pad":"` + strings.Repeat("x", limit) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		var got reservation
		h := LimitBody(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if DecodeBody(w, r, &got) {
				w.WriteHeader(http.StatusOK)
			}
		}), limit)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
		switch tc.want {
		case http.StatusOK:
			if got.User != 7 {
				t.Errorf("%s: decoded user %d, want 7", tc.name, got.User)
			}
		case http.StatusBadRequest:
			var reply map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || !strings.HasPrefix(reply["error"], "decode: ") {
				t.Errorf("%s: body %q, want an error that begins \"decode: \"", tc.name, rec.Body.String())
			}
		}
	}
}

// A body handed over in parts goes out whole, under its length: over a real
// connection that is a Content-Length reply, not a chunked one, whose reader
// can size a buffer before the first byte.
func TestWriteJSONPartsSaysHowLongTheBodyIs(t *testing.T) {
	ts := httptest.NewServer(RetryAfter503(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSONParts(w, []byte(`{"schedule":`), []byte(strings.Repeat(" ", 1<<16)+`null`), []byte(`,`), []byte(`"epoch":3}`), []byte("\n"))
	})))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plan struct{ Epoch int }
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil || plan.Epoch != 3 {
		t.Fatalf("body decodes to epoch %d, %v", plan.Epoch, err)
	}
	want := int64(len(`{"schedule":`) + 1<<16 + len(`null,"epoch":3}`) + 1)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != want || len(resp.TransferEncoding) != 0 ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Length %d (want %d), Transfer-Encoding %v, Content-Type %q",
			resp.StatusCode, resp.ContentLength, want, resp.TransferEncoding, resp.Header.Get("Content-Type"))
	}
}
