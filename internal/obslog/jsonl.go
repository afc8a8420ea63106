package obslog

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
	"unicode/utf8"
)

// appendJSONL appends e as one JSON line: the bytes json.Encoder.Encode
// writes for an Event (HTML-safe string escaping, RFC 3339 nanosecond
// timestamps, omitempty fields, a trailing newline), without reflection.
// FuzzEventJSONL holds the two encodings equal. Timestamps RFC 3339
// cannot carry (years outside 0–9999, zone offsets of a day or more) go
// through encoding/json, which reports them as errors.
func appendJSONL(dst []byte, e *Event) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"t":"`...)
	var ok bool
	if dst, ok = appendRFC3339(dst, e.Time); !ok {
		return encodeJSONL(dst[:n0], e)
	}
	dst = append(dst, `","level":`...)
	dst = strconv.AppendQuote(dst, e.Level.String())
	dst = append(dst, `,"component":`...)
	dst = appendJSONString(dst, e.Component)
	dst = append(dst, `,"msg":`...)
	dst = appendJSONString(dst, e.Msg)
	if e.Run != 0 {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendInt(dst, int64(e.Run), 10)
	}
	if e.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendJSONString(dst, e.Tenant)
	}
	if e.Span != "" {
		dst = append(dst, `,"span":`...)
		dst = appendJSONString(dst, e.Span)
	}
	if len(e.Fields) > 0 {
		dst = append(dst, `,"fields":[`...)
		for i, f := range e.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"k":`...)
			dst = appendJSONString(dst, f.Key)
			dst = append(dst, `,"v":`...)
			dst = appendJSONString(dst, f.Value)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// encodeJSONL is appendJSONL's reflection fallback.
func encodeJSONL(dst []byte, e *Event) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(e); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// appendRFC3339 appends t as time.Time.MarshalJSON renders it (without
// the quotes) and reports whether MarshalJSON would accept t.
func appendRFC3339(dst []byte, t time.Time) ([]byte, bool) {
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' { // the year must be exactly 4 digits
		return dst, false
	}
	if dst[len(dst)-1] != 'Z' { // the zone hour must be in [0,23]
		zone := dst[len(dst)-len("07:00"):]
		c := dst[len(dst)-len("Z07:00")]
		if ('0' <= c && c <= '9') || 10*(zone[0]-'0')+(zone[1]-'0') >= 24 {
			return dst, false
		}
	}
	return dst, true
}

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
