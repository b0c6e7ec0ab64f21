package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"domainnet/internal/datagen"
	"domainnet/internal/eval"
	"domainnet/internal/rank"
	"domainnet/internal/serve"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailPercentile(tc.n); q > 0 {
			beyond := tc.n - nearestRank(q, tc.n)
			if beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, q, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{20: 1, 50: 3, 60: 3, 61: 4, 100: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestPoissonScheduleSameSeedSameSchedule(t *testing.T) {
	a := poissonSchedule(7, 2000, 3*time.Second)
	b := poissonSchedule(7, 2000, 3*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 2000, 3*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 6000 expected arrivals: a Poisson count lies within ±5 sd (±387).
	if n := len(a); n < 5600 || n > 6400 {
		t.Errorf("%d arrivals in 3 s at 2000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 3*time.Second {
			t.Fatalf("offset %d = %v is out of order or past the window", i, a[i])
		}
	}
}

func TestJitteredScheduleKeepsItsGaps(t *testing.T) {
	a := jitteredSchedule(3, 200*time.Millisecond, 10*time.Second)
	if !slices.Equal(a, jitteredSchedule(3, 200*time.Millisecond, 10*time.Second)) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 39 || n > 66 {
		t.Errorf("%d sends in 10 s with a 200 ms mean gap", n)
	}
	prev := time.Duration(0)
	for i, at := range a {
		if gap := at - prev; gap < 150*time.Millisecond || gap >= 250*time.Millisecond {
			t.Fatalf("gap %d = %v, outside [150ms, 250ms)", i, gap)
		}
		prev = at
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, tc := range []struct {
		children []interval
		want     time.Duration
	}{
		{nil, 100 * time.Millisecond},
		{[]interval{at(10, 30)}, 80 * time.Millisecond},
		// Overlapping children cover [10,50] once, not 20+30 ms.
		{[]interval{at(10, 30), at(20, 50)}, 60 * time.Millisecond},
		// A child nested in another adds nothing.
		{[]interval{at(10, 50), at(20, 30)}, 60 * time.Millisecond},
		// Children sticking out of the parent count only inside it.
		{[]interval{at(-5, 5), at(90, 120)}, 85 * time.Millisecond},
		{[]interval{at(20, 50), at(-5, 5), at(10, 30), at(90, 120)}, 45 * time.Millisecond},
		{[]interval{at(-10, 200)}, 0},
		{[]interval{at(200, 300)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("selfTime(%v) = %v, want %v", tc.children, got, tc.want)
		}
	}
}

// TestPrecisionAtTruthOnSB pins the serve_read quality figure along the
// path the benchmark takes: a server's /topk body, decoded by parseTopK and
// scored by eval.AtK. Exact betweenness over SB seed 1 puts 38 of the 55
// planted homographs in its top 55, the paper's 69%, and the same 38 in its
// top 200, the 0.19 ceiling that rules precision@200 out on SB.
func TestPrecisionAtTruthOnSB(t *testing.T) {
	sb := datagen.NewSB(1)
	truth := sb.HomographSet()
	srv := serve.New(sb.Lake, fleetConfig)
	defer srv.Close()
	served := func(k int) []rank.Scored {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/topk?k="+strconv.Itoa(k), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/topk?k=%d: HTTP %d", k, rec.Code)
		}
		ranking, err := parseTopK(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("/topk?k=%d: %v", k, err)
		}
		if len(ranking) != k {
			t.Fatalf("/topk?k=%d returned %d values", k, len(ranking))
		}
		return ranking
	}
	k := len(sb.Homographs)
	if got := eval.AtK(served(k), truth, k).Precision; fmt.Sprintf("%.3f", got) != "0.691" {
		t.Errorf("precision at |H|=%d = %.4f, want 0.691", k, got)
	}
	if got := eval.AtK(served(200), truth, 200).Precision; got != 38.0/200 {
		t.Errorf("precision at 200 = %v, want the 38/200 ceiling", got)
	}
}

func TestSameRankingAllowsSummationDriftAndTies(t *testing.T) {
	ranking := func(values []string, scores ...float64) []rank.Scored {
		out := make([]rank.Scored, len(scores))
		for i := range out {
			out[i] = rank.Scored{Value: values[i], Score: scores[i]}
		}
		return out
	}
	abc := []string{"A", "B", "C"}
	want := ranking(abc, 0.3, 0.2, 0.2)
	for _, tc := range []struct {
		name   string
		got    []rank.Scored
		wantOK bool
	}{
		{"identical", want, true},
		{"last-ulp drift", ranking(abc, 0.3+1e-16, 0.2, 0.2-1e-17), true},
		{"tied values swapped", ranking([]string{"A", "C", "B"}, 0.3, 0.2, 0.2), true},
		{"untied values swapped", ranking([]string{"B", "A", "C"}, 0.3, 0.2, 0.2), false},
		{"score changed", ranking(abc, 0.3, 0.2, 0.1), false},
		{"value missing", want[:2], false},
	} {
		err := sameRanking(tc.got, want)
		if (err == nil) != tc.wantOK {
			t.Errorf("%s: sameRanking = %v, want ok=%v", tc.name, err, tc.wantOK)
		}
	}
}
