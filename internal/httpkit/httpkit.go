// Package httpkit is the serving shell both HTTP tiers mount
// (internal/server behind vspserve, internal/gateway behind vspgateway):
// the JSON reply and body-decode helpers, the protective middleware
// (LimitBody, Limiter, RetryAfter503, RecoverPanics) and the listen →
// signal → drain → close loop (Serve). It imports no package of this
// module, so a cross-cutting change to the serving path lands here once
// and both tiers carry it. Which layers each tier composes, and why the
// gateway skips the request timeout and the limiter, is in DESIGN.md
// §11 and §13.
package httpkit

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
)

// WriteJSON replies with v as a JSON body under the given status. The
// status line waits for the body's first byte: json.Encoder encodes v whole
// before it writes anything, so a value it cannot encode has sent nothing
// yet and becomes a logged 500 with an error body, never a success status
// over an empty one. A failed write to a client that has gone is dropped —
// there is nobody left to tell.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	body := statusOnWrite{ResponseWriter: w, code: code}
	if err := json.NewEncoder(&body).Encode(v); err != nil && !body.wrote {
		log.Printf("httpkit: cannot encode %T reply: %v", v, err)
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "encode reply: " + err.Error()})
	}
}

// statusOnWrite sends its status line with the first body byte.
type statusOnWrite struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (s *statusOnWrite) Write(b []byte) (int, error) {
	if !s.wrote {
		s.wrote = true
		s.ResponseWriter.WriteHeader(s.code)
	}
	return s.ResponseWriter.Write(b)
}

// WriteErr replies with {"error": err.Error()} under the given status.
func WriteErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeBody decodes a JSON request body into v, writing the error reply
// itself on failure: 413 when the LimitBody cap was hit, 400 for any
// other malformed payload.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return false
	}
	return true
}

// LimitBody caps the request body via http.MaxBytesReader; reads past the
// limit fail with *http.MaxBytesError, which DecodeBody maps to 413.
func LimitBody(next http.Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// timeoutRetryAfter is the Retry-After value attached to 503 replies.
const timeoutRetryAfter = "1"

// RetryAfter503 decorates every 503 reply — http.TimeoutHandler's, a
// handler's context-expiry 503, the gateway's all-shards-ejected shed or
// relayed shard 503 — with a Retry-After header, so those clients back
// off exactly like shed ones (whose 429 carries the header already).
func RetryAfter503(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&retryAfterWriter{ResponseWriter: w}, r)
	})
}

type retryAfterWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *retryAfterWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.wroteHeader = true
		if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", timeoutRetryAfter)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *retryAfterWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// RecoverPanics converts a handler panic into a 500 JSON error instead of
// tearing down the connection, and logs the panic value. A panicking
// handler may already have written a partial response; in that case the
// write of the error body fails silently, which is the best that can be
// done after the fact.
func RecoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				log.Printf("httpkit: panic serving %s %s: %v", r.Method, r.URL.Path, v)
				WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal server error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}
