package obs

import (
	"log/slog"
	"net/http"
	"strconv"
)

// MiddlewareConfig wires the request middleware: correlation IDs,
// one structured access-log line per request, and a per-route×status
// duration observation. Zero-value fields degrade gracefully (nil
// Logger logs nothing, nil Observe measures nothing).
type MiddlewareConfig struct {
	// Clock times the request; nil falls back to SystemClock.
	Clock Clock
	// Logger receives one "request" line per call with method, route,
	// path, status, duration and request_id attributes.
	Logger *slog.Logger
	// Observe receives (route, status, seconds) after every request —
	// the HTTP latency histogram feed. route is the ServeMux pattern
	// that matched ("unmatched" otherwise), so cardinality is bounded
	// by the route table, not by client-controlled paths.
	Observe func(route, status string, seconds float64)
	// Route resolves the request's route label. The ServeMux only
	// stamps Request.Pattern on the clone it hands to the handler, so
	// a wrapping middleware cannot read it afterwards; pass
	// func(r *http.Request) string { _, p := mux.Handler(r); return p }
	// to label by the mux's own match. nil (or an empty resolution)
	// falls back to "unmatched".
	Route func(r *http.Request) string
}

// Middleware wraps next with request-ID propagation, access logging and
// latency observation. The inbound X-Request-Id is sanitized and
// echoed; absent (or unsalvageable) ones are generated. The ID rides
// the request context (RequestIDFrom) into handlers, so async work they
// spawn can carry the correlation onward.
func Middleware(next http.Handler, cfg MiddlewareConfig) http.Handler {
	clock := cfg.Clock
	if clock == nil {
		clock = SystemClock
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := clock()
		id, ok := SanitizeRequestID(r.Header.Get(RequestIDHeader))
		if !ok {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := WithRequestID(r.Context(), id)
		route := ""
		if cfg.Route != nil {
			route = cfg.Route(r)
		}
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		seconds := clock().Sub(start).Seconds()
		if cfg.Observe != nil {
			cfg.Observe(route, strconv.Itoa(sw.status()), seconds)
		}
		if cfg.Logger != nil {
			cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status()),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("dur_seconds", seconds),
			)
		}
	})
}

// statusWriter records the response status and size while preserving
// the streaming contract: handlers type-assert http.Flusher to flush
// NDJSON progress lines, so the wrapper must forward Flush.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status reports the response code (200 when the handler never wrote).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
