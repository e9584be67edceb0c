// Package httpkit is the serving shell both HTTP tiers mount
// (internal/server behind vspserve, internal/gateway behind vspgateway):
// the JSON reply and body-decode helpers, the protective middleware
// (LimitBody, Deadline, Limiter, RetryAfter503, RecoverPanics) and the listen →
// signal → drain → close loop (Serve). It imports no package of this
// module, so a cross-cutting change to the serving path lands here once
// and both tiers carry it. Which layers each tier composes, and why the
// gateway skips the request timeout and the limiter, is in DESIGN.md
// §11 and §13.
package httpkit

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
)

// WriteJSON replies with v as a JSON body under the given status. The
// status line waits for the body's first byte: json.Encoder encodes v whole
// before it writes anything, so a value it cannot encode has sent nothing
// yet and becomes a logged 500 with an error body, never a success status
// over an empty one. A failed write to a client that has gone is dropped —
// there is nobody left to tell.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	rw := wrap(w)
	rw.Header().Set("Content-Type", "application/json")
	rw.status = code
	if err := json.NewEncoder(rw).Encode(v); err != nil && !rw.wrote {
		log.Printf("httpkit: cannot encode %T reply: %v", v, err)
		rw.status = http.StatusInternalServerError
		_ = json.NewEncoder(rw).Encode(map[string]string{"error": "encode reply: " + err.Error()})
	}
}

// WriteJSONParts replies 200 with a JSON body its caller has already
// encoded, handed over in parts so that an encoding kept between requests is
// spliced into the reply, not copied. The parts' total goes out as
// Content-Length: a megabyte body is not chunk-framed, and its reader can
// size a buffer for it before the first byte. A failed write to a client
// that has gone is dropped.
func WriteJSONParts(w http.ResponseWriter, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}

// WriteErr replies with {"error": err.Error()} under the given status.
func WriteErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// bodies holds the buffers DecodeBody reads request bodies into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer DecodeBody hands back to the pool; a
// reservation is under a hundred bytes, and one 16 MiB batch must not pin
// 16 MiB until the next collection.
const maxPooledBody = 64 << 10

// DecodeBody decodes a JSON request body into v, writing the error reply
// itself on failure: 413 when the LimitBody cap was hit, 400 for any
// other malformed payload. The body must hold exactly one JSON value —
// whatever follows it other than whitespace is a 400, not a silently
// dropped second request. It is read whole into a pooled buffer and
// unmarshalled from there; encoding/json copies what v keeps.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if err != nil {
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

// RetryAfter503 decorates every 503 reply — Deadline's, a handler's
// context-expiry 503, the gateway's all-shards-ejected shed or relayed
// shard 503 — with a Retry-After header, so those clients back off
// exactly like shed ones (whose 429 carries the header already). It is
// the layer that gives a request its reply wrapper; everything inside it
// shares that one.
func RetryAfter503(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(wrap(w), r)
	})
}

// reply is the one response wrapper a request gets from this shell. It
// remembers whether anything has been sent (Deadline answers only for a
// handler that sent nothing), sends the first body byte under the status
// WriteJSON asked for, and gives every 503 its Retry-After.
type reply struct {
	http.ResponseWriter
	status int // what a body's first byte goes out under; 0 is net/http's 200
	wrote  bool
}

// wrap returns w itself when an outer layer has wrapped it already.
func wrap(w http.ResponseWriter) *reply {
	if rw, ok := w.(*reply); ok {
		return rw
	}
	return &reply{ResponseWriter: w}
}

func (w *reply) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", timeoutRetryAfter)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *reply) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(cmp.Or(w.status, http.StatusOK))
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
