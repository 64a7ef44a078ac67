package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

const (
	// maxLine caps one NDJSON line. A grid's result line carries every
	// cell's result, so lines can be long; one past the cap fails the
	// read with bufio.ErrTooLong.
	maxLine = 1 << 24
	// excerptLen is how many bytes of an offending line an error quotes.
	excerptLen = 64
	// typePrefix opens every line physchedd writes: its wire structs
	// declare Type first, and cmd/physchedd pins that in a test.
	typePrefix = `{"type":"`
)

// lineReader reads an NDJSON body one line at a time. Its buffer starts
// at bufio's 4 KiB default and doubles only when a line needs it, up to
// maxLine.
type lineReader struct {
	*bufio.Scanner
	what string // names the stream in errors: "NDJSON" or "trace"
	typ  string // the current line's "type", set by readType
}

func newLineReader(r io.Reader, what string) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return &lineReader{Scanner: sc, what: what}
}

// readType returns the current line's "type" ("" when it has none).
// When "type" is the first key and its value has no escapes, the value
// is read off the line's prefix without scanning the rest; any other
// line is decoded for its type alone. The fast read does not validate
// the line: decode does, and every line a caller acts on is decoded.
func (lr *lineReader) readType() (string, error) {
	line := lr.Bytes()
	if rest, ok := bytes.CutPrefix(line, []byte(typePrefix)); ok {
		if end := bytes.IndexByte(rest, '"'); end >= 0 && bytes.IndexByte(rest[:end], '\\') < 0 {
			lr.typ = string(rest[:end])
			return lr.typ, nil
		}
	}
	var v struct {
		Type string `json:"type"`
	}
	if err := lr.decode(&v, nil); err != nil {
		return "", err
	}
	lr.typ = v.Type
	return lr.typ, nil
}

// decode unmarshals the current line into v. typ, when non-nil, is v's
// decoded Type field: it must equal what readType returned, which it
// does unless the line repeats its "type" key (JSON keeps the last
// value, the fast read the first), and such a line is refused.
func (lr *lineReader) decode(v any, typ *string) error {
	if err := json.Unmarshal(lr.Bytes(), v); err != nil {
		return lr.bad(err)
	}
	if typ != nil && *typ != lr.typ {
		return lr.bad(fmt.Errorf("type %q decodes as %q", lr.typ, *typ))
	}
	return nil
}

// bad reports the current line as malformed.
func (lr *lineReader) bad(err error) error {
	return fmt.Errorf("physchedd: bad %s line %s: %w", lr.what, lr.excerpt(), err)
}

// excerpt quotes at most excerptLen bytes of the current line with its
// length, so a bad line near maxLine does not make an error as long.
func (lr *lineReader) excerpt() string {
	line := lr.Bytes()
	if len(line) <= excerptLen {
		return fmt.Sprintf("%q (%d bytes)", line, len(line))
	}
	return fmt.Sprintf("%q… (%d bytes)", line[:excerptLen], len(line))
}
