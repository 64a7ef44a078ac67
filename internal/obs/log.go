package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns a structured JSON logger whose record timestamps
// come from the injected clock rather than the handler's own time.Now,
// so a fake clock yields byte-stable log lines under test. Every line
// is one JSON object; nil w discards everything (the default for
// in-process test servers that did not ask for logs).
func NewLogger(w io.Writer, clock Clock, level slog.Leveler) *slog.Logger {
	if w == nil {
		w = io.Discard
	}
	if clock == nil {
		clock = SystemClock
	}
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			// The JSON handler stamps records with its own wall-clock
			// read; rewriting the time attribute here routes the
			// timestamp through the audited clock seam instead.
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Time(slog.TimeKey, clock())
			}
			return a
		},
	})
	return slog.New(h)
}
