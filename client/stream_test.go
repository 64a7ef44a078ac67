package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// canned is an http.RoundTripper that answers every request with 200
// and the same NDJSON body, so stream decoding runs without sockets.
type canned []byte

func (c canned) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(c)),
	}, nil
}

func streamBody(body []byte, onProgress func(ProgressLine)) (*ResultLine, *StudyLine, error) {
	c := New("http://physchedd.test", WithHTTPClient(&http.Client{Transport: canned(body)}))
	return c.StreamJob(context.Background(), "job", onProgress)
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sortedKeys re-encodes a JSON object with its keys in sorted order, so
// "type" is no longer the first key of any line that has others
// sorting before it.
func sortedKeys(t *testing.T, line string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, m)
}

var (
	progress1 = ProgressLine{Type: "progress", Done: 1, Total: 2, Label: "a", Load: 0.8, Seed: 3}
	progress2 = ProgressLine{Type: "progress", Done: 2, Total: 2, Load: 1.6, Seed: 4, FromCache: true}
	result    = ResultLine{Type: "result", GridHash: "g", CacheHits: 1,
		Cells: []CellResult{{Hash: "h1", Label: "a"}, {Hash: "h2"}}}
)

func TestStreamProgressThenTerminal(t *testing.T) {
	study := StudyLine{Type: "study", StudyHash: "s"}
	for _, tc := range []struct {
		name     string
		terminal string
	}{
		{"result", mustJSON(t, result)},
		{"study", mustJSON(t, study)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := mustJSON(t, progress1) + "\n" + mustJSON(t, progress2) + "\n" + tc.terminal + "\n"
			var got []ProgressLine
			r, s, err := streamBody([]byte(body), func(p ProgressLine) { got = append(got, p) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, []ProgressLine{progress1, progress2}) {
				t.Errorf("progress %+v", got)
			}
			switch tc.name {
			case "result":
				if s != nil || r == nil || !reflect.DeepEqual(*r, result) {
					t.Errorf("result %+v, study %+v", r, s)
				}
			case "study":
				if r != nil || s == nil || !reflect.DeepEqual(*s, study) {
					t.Errorf("result %+v, study %+v", r, s)
				}
			}
		})
	}
}

func TestStreamFailures(t *testing.T) {
	p := mustJSON(t, progress1) + "\n"
	for _, tc := range []struct {
		name, body, want string
	}{
		{"error line", p + `{"type":"error","error":"pool closed"}` + "\n", "physchedd: stream error: pool closed"},
		{"unknown type", p + `{"type":"bogus","x":1}` + "\n", `physchedd: unexpected stream line type "bogus"`},
		{"not JSON", p + "not json\n", "physchedd: bad NDJSON line"},
		{"blank line", p + "\n", "physchedd: bad NDJSON line"},
		{"truncated after the type", `{"type":"progress","done":1` + "\n", "physchedd: bad NDJSON line"},
		{"truncated unknown type", `{"type":"bogus",` + "\n", "physchedd: bad NDJSON line"},
		{"wrong field type", `{"type":"result","cells":7}` + "\n", "physchedd: bad NDJSON line"},
		{"repeated type key", `{"type":"progress","type":"result"}` + "\n", "physchedd: bad NDJSON line"},
		{"EOF without a terminal line", p + p, "physchedd: stream ended without a terminal line"},
		{"empty body", "", "physchedd: stream ended without a terminal line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s, err := streamBody([]byte(tc.body), nil)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("err %v, want prefix %q", err, tc.want)
			}
			if r != nil || s != nil {
				t.Errorf("terminal line returned with an error: %+v %+v", r, s)
			}
		})
	}
}

// A line whose "type" is not read off the prefix (another key first,
// whitespace, an escape) takes the full decode and must come out the
// same as the canonical line.
func TestStreamSlowTypeMatchesFastPath(t *testing.T) {
	p, r := mustJSON(t, progress1), mustJSON(t, result)
	canonical := p + "\n" + r + "\n"
	var want []ProgressLine
	wantRes, _, err := streamBody([]byte(canonical), func(p ProgressLine) { want = append(want, p) })
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"another key first": sortedKeys(t, p) + "\n" + sortedKeys(t, r) + "\n",
		"whitespace":        "{ " + p[1:] + "\n" + `{"type": "result"` + r[len(`{"type":"result"`):] + "\n",
		"escaped type":      strings.Replace(p, `"progress"`, `"pro\u0067ress"`, 1) + "\n" + strings.Replace(r, `"result"`, `"res\u0075lt"`, 1) + "\n",
	} {
		var got []ProgressLine
		gotRes, _, err := streamBody([]byte(body), func(p ProgressLine) { got = append(got, p) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: decoded %+v %+v, want %+v %+v", name, got, gotRes, want, wantRes)
		}
	}
}

func TestStreamLineOverCap(t *testing.T) {
	line := append([]byte(`{"type":"progress","label":"`), bytes.Repeat([]byte("x"), maxLine)...)
	line = append(line, "\"}\n"...)
	_, _, err := streamBody(line, nil)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err %v, want bufio.ErrTooLong", err)
	}
}

// A bad line is quoted only up to excerptLen bytes, with its length.
func TestBadLineErrorIsBounded(t *testing.T) {
	line := `{"type":"progress","done":"` + strings.Repeat("x", 1<<20) + `"}`
	_, _, err := streamBody([]byte(line+"\n"), nil)
	if err == nil {
		t.Fatal("bad line accepted")
	}
	msg := err.Error()
	if len(msg) > 4*excerptLen+200 {
		t.Errorf("error is %d bytes long", len(msg))
	}
	if want := fmt.Sprintf("(%d bytes)", len(line)); !strings.Contains(msg, want) {
		t.Errorf("error %q does not give the line length %s", msg, want)
	}
}

func TestDecodeTraceBadLines(t *testing.T) {
	hdr := `{"type":"cell","index":0,"hash":"abc","load_jobs_per_hour":1,"seed":5,"events":1}` + "\n"
	for name, body := range map[string]string{
		"bad header": `{"type":"cell","index":"zero"}` + "\n",
		"bad event":  hdr + `{"t":"soon","kind":"x"}` + "\n",
		"not JSON":   hdr + "{\n",
	} {
		if _, err := decodeTrace(strings.NewReader(body)); err == nil || !strings.HasPrefix(err.Error(), "physchedd: bad trace line") {
			t.Errorf("%s: err %v", name, err)
		}
	}
}

// gridStream is a real physchedd stream of a 12-cell grid (one policy,
// three loads, four seeds): 12 progress lines, then the result line.
func gridStream(tb testing.TB) []byte {
	body, err := os.ReadFile("testdata/grid_stream.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkStreamJob decodes one grid job's stream, as StreamJob does
// for every job a client waits on, through a stub transport.
func BenchmarkStreamJob(b *testing.B) {
	c := New("http://physchedd.test", WithHTTPClient(&http.Client{Transport: canned(gridStream(b))}))
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		r, _, err := c.StreamJob(ctx, "job", nil)
		if err != nil || len(r.Cells) != 12 {
			b.Fatalf("result %v, err %v", r, err)
		}
	}
}

// streamBytesLimit bounds what decoding one grid job's stream may
// allocate. The stream is 14 KB; a reader that allocates its whole
// 1 MiB line cap up front fails it.
const streamBytesLimit = 256 << 10

func TestStreamJobAllocBound(t *testing.T) {
	body := gridStream(t)
	c := New("http://physchedd.test", WithHTTPClient(&http.Client{Transport: canned(body)}))
	run := func() {
		if _, _, err := c.StreamJob(context.Background(), "job", nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > streamBytesLimit {
		t.Errorf("one StreamJob decode allocates %d bytes, limit %d", per, streamBytesLimit)
	}
}
