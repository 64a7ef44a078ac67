package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestLoggerUsesInjectedClock(t *testing.T) {
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	l := NewLogger(&buf, func() time.Time { return epoch }, slog.LevelInfo)
	l.Info("hello", "k", "v")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line is not JSON: %q", buf.String())
	}
	ts, _ := line["time"].(string)
	if !strings.HasPrefix(ts, "2026-08-08T12:00:00") {
		t.Errorf("time = %q, want the injected clock's instant", ts)
	}
	if line["msg"] != "hello" || line["k"] != "v" {
		t.Errorf("line = %v", line)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"abc123", "abc123", true},
		{"has spaces\nand\tctl", "hasspacesandctl", true},
		{`inj"ect\me`, "injectme", true},
		{"", "", false},
		{"\n\t ", "", false},
		{strings.Repeat("x", 200), strings.Repeat("x", 64), true},
	}
	for _, tc := range cases {
		got, ok := SanitizeRequestID(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("SanitizeRequestID(%q) = (%q, %v), want (%q, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := WithRequestID(context.Background(), "rid1")
	if got := RequestIDFrom(ctx); got != "rid1" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("empty context RequestIDFrom = %q, want \"\"", got)
	}
}

func TestMiddlewareEchoesAndGeneratesRequestIDs(t *testing.T) {
	mux := http.NewServeMux()
	var seen string
	mux.HandleFunc("GET /x", func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusTeapot)
	})
	h := Middleware(mux, MiddlewareConfig{Clock: func() time.Time { return time.Unix(0, 0) }})

	// Supplied ID echoes, reaches the handler, and is sanitized.
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "my-id-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "my-id-42" {
		t.Errorf("echoed ID = %q, want my-id-42", got)
	}
	if seen != "my-id-42" {
		t.Errorf("handler saw ID %q", seen)
	}
	if rec.Code != http.StatusTeapot {
		t.Errorf("status %d passed through wrong", rec.Code)
	}

	// Absent ID: one is generated and echoed.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if got := rec.Header().Get(RequestIDHeader); len(got) != 16 {
		t.Errorf("generated ID = %q, want 16 hex chars", got)
	}
}

func TestMiddlewareLogsAndObserves(t *testing.T) {
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := epoch
	clock := func() time.Time { return now }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things/{id}", func(w http.ResponseWriter, r *http.Request) {
		now = now.Add(250 * time.Millisecond) // the handler "takes" 250ms
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte("nope"))
	})
	var buf bytes.Buffer
	var gotRoute, gotStatus string
	var gotSec float64
	h := Middleware(mux, MiddlewareConfig{
		Clock:  clock,
		Logger: NewLogger(&buf, clock, slog.LevelInfo),
		Observe: func(route, status string, seconds float64) {
			gotRoute, gotStatus, gotSec = route, status, seconds
		},
		Route: func(r *http.Request) string { _, p := mux.Handler(r); return p },
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/things/9", nil))

	if gotRoute != "GET /v1/things/{id}" {
		t.Errorf("observed route %q, want the mux pattern", gotRoute)
	}
	if gotStatus != "404" || gotSec != 0.25 {
		t.Errorf("observed (%s, %g), want (404, 0.25)", gotStatus, gotSec)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log line is not JSON: %q", buf.String())
	}
	if line["msg"] != "request" || line["route"] != "GET /v1/things/{id}" ||
		line["status"] != float64(404) || line["request_id"] == "" {
		t.Errorf("access line = %v", line)
	}

	// Unmatched path: route label stays bounded.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/nope", nil))
	if gotRoute != "unmatched" {
		t.Errorf("unmatched route label = %q", gotRoute)
	}
}

func TestMiddlewarePreservesFlusher(t *testing.T) {
	mux := http.NewServeMux()
	flushed := false
	mux.HandleFunc("GET /s", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("middleware dropped http.Flusher")
			return
		}
		w.Write([]byte("line\n"))
		f.Flush()
		flushed = true
	})
	h := Middleware(mux, MiddlewareConfig{Clock: func() time.Time { return time.Unix(0, 0) }})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/s", nil))
	if !flushed || !rec.Flushed {
		t.Errorf("flush did not reach the underlying writer (handler flushed: %v, recorder flushed: %v)", flushed, rec.Flushed)
	}
}
