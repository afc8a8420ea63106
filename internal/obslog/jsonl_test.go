package obslog

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzEventJSONL: the reflection-free appender writes exactly the bytes
// json.Encoder.Encode writes for the same event, and fails where it
// fails.
func FuzzEventJSONL(f *testing.F) {
	const day = 24 * 3600
	for _, s := range []struct {
		sec                     int64
		zone                    int32
		level                   int8
		run                     int
		comp, msg, tenant, span string
		k, v                    string
		nfields                 uint8
	}{
		{1783152000, 0, 1, 0, "flow", "run started", "", "", "", "", 0},
		{1783152000, 3600, 2, 7, "c", "<b>&amp;</b>", "bl1/file", "recon", "k", `"quoted" \back\slash`, 1},
		{1783152000, -5 * 3600, 3, -4, "\x00\x01\b\f\n\r\t\x1f\x7f", "ctl", "", "", "\x10", "\x1b[0m", 2},
		{1783152000, 0, 0, 1, "bad\xff\xfeutf8", "trunc\xe2\x80", "\xc0\xaf", "", "ok", "é中😀", 3},
		{1783152000, 0, 1, 2, "sep\u2028line", "para\u2029graph", "", "\u2028", "", "", 255},
		{1783152000, 0, 42, 0, "", "", "", "", "", "", 1},
		{-62135596800, 0, 1, 0, "year one", "", "", "", "", "", 0},
		{253402300800, 0, 1, 0, "year 10000", "", "", "", "", "", 0},
		{-62135596801, 0, 1, 0, "year 0 and below", "", "", "", "", "", 0},
		{1783152000, day, 1, 0, "zone +24h", "", "", "", "", "", 0},
		{1783152000, day - 60, 1, 0, "zone +23:59", "", "", "", "", "", 0},
		{1783152000, -day - 59, 1, 0, "zone -24h", "", "", "", "", "", 0},
	} {
		f.Add(uint64(s.sec), s.sec, int64(123456789), s.zone, s.level, s.run,
			s.comp, s.msg, s.tenant, s.span, s.k, s.v, s.nfields)
	}
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, zone int32, level int8, run int,
		comp, msg, tenant, span, k, v string, nfields uint8) {
		e := Event{
			Seq: seq, Time: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			Level: Level(level), Component: comp, Msg: msg, Run: run, Tenant: tenant, Span: span,
		}
		switch nfields {
		case 0: // nil Fields
		case 1:
			e.Fields = []Field{}
		default:
			for i := 0; i < int(nfields%4); i++ {
				e.Fields = append(e.Fields, Field{Key: k, Value: v}, Field{Key: v, Value: msg})
			}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(e)
		got, err := appendJSONL([]byte("prefix"), &e)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("appendJSONL err %v, json.Encoder err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if string(got) != "prefix"+want.String() {
			t.Fatalf("appendJSONL:\n got %q\nwant %q", got, "prefix"+want.String())
		}
	})
}
