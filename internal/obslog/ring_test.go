package obslog

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"
)

// seqs returns the sequence numbers of evs, oldest first.
func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// seqRange returns lo..hi inclusive.
func seqRange(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// TestRingBoundaries drives rings of several capacities through fill,
// growth (the ring starts at 64 events and doubles up to its capacity)
// and two full wraps, checking what is retained and counted after every
// event and the filtered and served views at the boundaries.
func TestRingBoundaries(t *testing.T) {
	for _, capacity := range []int{1, 4, 63, 64, 65, 100, 1000} {
		t.Run(strconv.Itoa(capacity), func(t *testing.T) {
			j := New(fixedClock(time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)), capacity)
			ctx := context.Background()
			n := 3 * capacity
			for i := 1; i <= n; i++ {
				// Components alternate so filtered views skip events.
				comp := "a"
				if i%2 == 0 {
					comp = "b"
				}
				j.Emit(ctx, LevelInfo, comp, "tick")
				retained := min(i, capacity)
				if j.Len() != retained || j.Evicted() != uint64(i-retained) || j.LastSeq() != uint64(i) {
					t.Fatalf("after %d events: Len %d Evicted %d LastSeq %d, want %d %d %d",
						i, j.Len(), j.Evicted(), j.LastSeq(), retained, i-retained, i)
				}
				if i == 1 || i == capacity || i == capacity+1 || i == n {
					want := seqRange(uint64(i-retained+1), uint64(i))
					if got := seqs(j.Events(Filter{})); !slices.Equal(got, want) {
						t.Fatalf("after %d events retained %v, want %v", i, got, want)
					}
				}
			}
			checkLimits(t, j, capacity)
			checkServed(t, j, capacity)
		})
	}
}

// checkLimits: Filter.Limit keeps the newest matches, alone and after a
// component filter, identically through Events and WriteJSONL.
func checkLimits(t *testing.T, j *Journal, capacity int) {
	t.Helper()
	all := seqs(j.Events(Filter{}))
	var as []uint64
	for _, e := range j.Events(Filter{}) {
		if e.Component == "a" {
			as = append(as, e.Seq)
		}
	}
	for _, limit := range []int{1, capacity / 2, capacity, capacity + 5} {
		for _, f := range []Filter{{Limit: limit}, {Limit: limit, Component: "a"}} {
			base := all
			if f.Component != "" {
				base = as
			}
			want := base[max(0, len(base)-limit):]
			got := j.Events(f)
			if limit > 0 && !slices.Equal(seqs(got), want) {
				t.Fatalf("%+v: got %v, want %v", f, seqs(got), want)
			}
			var dump, ref bytes.Buffer
			if err := j.WriteJSONL(&dump, f); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&ref)
			for _, e := range got {
				enc.Encode(e)
			}
			if dump.String() != ref.String() {
				t.Fatalf("%+v: WriteJSONL differs from the encoded Events:\n%s---\n%s", f, dump.String(), ref.String())
			}
		}
	}
}

// checkServed: the /api/events envelope reports the ring's totals.
func checkServed(t *testing.T, j *Journal, capacity int) {
	t.Helper()
	rec := httptest.NewRecorder()
	j.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/events?limit=2", nil))
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	n := uint64(3 * capacity)
	if resp.Total != capacity || resp.Evicted != 2*uint64(capacity) || resp.LastSeq != n {
		t.Fatalf("envelope total %d evicted %d last_seq %d, want %d %d %d",
			resp.Total, resp.Evicted, resp.LastSeq, capacity, 2*capacity, n)
	}
	want := seqRange(n-uint64(min(2, capacity))+1, n)
	if got := seqs(resp.Events); !slices.Equal(got, want) {
		t.Fatalf("served events %v, want %v", got, want)
	}
}

// TestEmitFullRingNoAllocs: once the ring has reached its capacity,
// emitting overwrites in place and allocates nothing.
func TestEmitFullRingNoAllocs(t *testing.T) {
	j := New(fixedClock(time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC)), 100)
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		j.Emit(ctx, LevelInfo, "c", "fill")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		j.Emit(ctx, LevelInfo, "c", "steady")
	}); allocs != 0 {
		t.Fatalf("Emit on a full ring: %v allocs/op, want 0", allocs)
	}
}

// TestRingGrowsOnDemand: a journal's memory follows what it holds, not
// its bound.
func TestRingGrowsOnDemand(t *testing.T) {
	j := New(fixedClock(time.Time{}), 0)
	if got := cap(j.ring); got != 0 {
		t.Fatalf("fresh journal allocated %d events", got)
	}
	for i := 0; i < 65; i++ {
		j.Emit(context.Background(), LevelInfo, "c", "e")
	}
	if got := len(j.ring); got != 2*minRing {
		t.Fatalf("ring of %d after 65 events, want %d", got, 2*minRing)
	}
}
