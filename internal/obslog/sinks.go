package obslog

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// TextSink renders events as human-readable lines for the command-line
// binaries:
//
//	2026-08-05T10:00:00Z INFO  [flow] run completed run=3 span=streaming_recon outcome=succeeded
//
// Write is invoked under the journal lock, so emission order is the line
// order and no extra locking is needed.
type TextSink struct {
	W io.Writer
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{W: w} }

// Write renders one event as a single line.
func (s *TextSink) Write(e Event) {
	if s == nil || s.W == nil {
		return
	}
	var b strings.Builder
	b.WriteString(e.Time.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, " %-5s [%s] %s", e.Level, e.Component, e.Msg)
	if e.Run != 0 {
		fmt.Fprintf(&b, " run=%d", e.Run)
	}
	if e.Span != "" {
		fmt.Fprintf(&b, " span=%s", e.Span)
	}
	for _, f := range e.Fields {
		v := f.Value
		if strings.ContainsAny(v, " \t\"") {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, " %s=%s", f.Key, v)
	}
	b.WriteByte('\n')
	io.WriteString(s.W, b.String())
}

// JSONLSink streams every accepted event as one JSON object per line —
// the machine-readable form the determinism gate compares byte for byte.
// Its lines are the ones WriteJSONL dumps.
type JSONLSink struct {
	w   io.Writer
	buf []byte // reused line buffer; Write runs under the journal lock
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Write encodes one event as a JSON line. Field order follows the Event
// struct, so identical journals encode to identical bytes. Events whose
// timestamp JSON cannot carry are dropped, as json.Encoder drops them.
func (s *JSONLSink) Write(e Event) {
	if s == nil || s.w == nil {
		return
	}
	buf, err := appendJSONL(s.buf[:0], &e)
	if err != nil {
		return
	}
	s.buf = buf
	s.w.Write(buf)
}

// WriteJSONL dumps the retained events matching f to w, one JSON object
// per line, oldest first. Two journals with identical contents produce
// identical bytes — the property scripts/check.sh's determinism stage
// asserts across sim runs. The ring is encoded in place under the
// journal lock, so emitters wait while w is written.
func (j *Journal) WriteJSONL(w io.Writer, f Filter) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf []byte
	return j.eachLocked(f, func(e *Event) error {
		var err error
		if buf, err = appendJSONL(buf[:0], e); err == nil {
			_, err = w.Write(buf)
		}
		if err != nil {
			return fmt.Errorf("obslog: encode event %d: %w", e.Seq, err)
		}
		return nil
	})
}
