package retryhttp_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/vodsim/vsp/internal/retryhttp"
)

// A reply is exactly one JSON value, the rule httpkit.DecodeBody has for
// requests: whatever follows it other than whitespace is a decode error
// naming the call, not a second value silently dropped.
func TestReplyIsExactlyOneJSONValue(t *testing.T) {
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer ts.Close()

	var out struct {
		N int `json:"n"`
	}
	for _, ok := range []string{`{"n":1}`, "{\"n\":1}\n", " {\"n\":1} \r\n\t"} {
		body, out.N = ok, 0
		if err := retryhttp.GetJSON(context.Background(), fastOpts(), ts.URL, &out); err != nil || out.N != 1 {
			t.Errorf("reply %q: n=%d, %v; want 1 and no error", ok, out.N, err)
		}
	}
	for _, bad := range []string{`{"n":1}{"n":2}`, `{"n":1} x`, `{"n":1}` + "\n" + `null`, ``, `{"n":`} {
		body = bad
		err := retryhttp.PostJSON(context.Background(), fastOpts(), ts.URL, struct{}{}, &out)
		if err == nil || !strings.Contains(err.Error(), "retryhttp: decode POST "+ts.URL+" reply: ") {
			t.Errorf("reply %q: error %v; want a decode error naming the call", bad, err)
		}
	}
	// Nobody asked for the value: the body is discarded unread, as before.
	body = `{"n":1}{"n":2}`
	if err := retryhttp.GetJSON(context.Background(), fastOpts(), ts.URL, nil); err != nil {
		t.Errorf("a reply nobody decodes: %v", err)
	}
}

// Replies are read whole into reused buffers: every body arrives intact
// whether or not it says how long it is, above the size the pool keeps and
// below it, and a short reply read into a buffer a long one grew shows none
// of the long one's bytes.
func TestRepliesArriveWholeInReusedBuffers(t *testing.T) {
	var body []byte
	var chunked bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if chunked {
			w.(http.Flusher).Flush() // no Content-Length from here on
		}
		w.Write(body)
	}))
	defer ts.Close()

	for _, n := range []int{5 << 20, 1, 511, 512, 513, 100 << 10, 0, 4<<20 + 1, 7} {
		for _, chunked = range []bool{false, true} {
			body = bytes.Repeat([]byte{byte('a' + n%26)}, n)
			var got []byte
			err := retryhttp.GetBody(context.Background(), fastOpts(), ts.URL, func(b []byte) error {
				got = bytes.Clone(b)
				return nil
			})
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("a reply of %d bytes (chunked %v) arrived as %d bytes, %v", n, chunked, len(got), err)
			}
		}
	}
}

type recordingTransport struct{ seen []*http.Request }

func (rt *recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.seen = append(rt.seen, r)
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: r}, nil
}

// Do sends the request newReq built when it already carries the call's
// context, and a copy on that context when it does not.
func TestDoCopiesOnlyARequestOnAnotherContext(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "the call's")
	rt := &recordingTransport{}
	opts := retryhttp.Options{Client: &http.Client{Transport: rt}}
	var built []*http.Request
	for _, on := range []context.Context{ctx, context.Background()} {
		resp, err := retryhttp.Do(ctx, opts, func() (*http.Request, error) {
			req, err := http.NewRequestWithContext(on, http.MethodGet, "http://shard.invalid/v1/plan", nil)
			built = append(built, req)
			return req, err
		})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(rt.seen) != 2 || len(built) != 2 {
		t.Fatalf("%d requests built, %d sent; want 2 and 2", len(built), len(rt.seen))
	}
	for i, r := range rt.seen {
		if r.Context().Value(key{}) != "the call's" {
			t.Errorf("request %d went out on a context that is not the call's", i)
		}
	}
	if rt.seen[0] != built[0] {
		t.Error("a request built on the call's context was copied")
	}
	if rt.seen[1] == built[1] {
		t.Error("a request built on another context was sent as it was")
	}
}
