package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func msList(vals ...int) []time.Duration {
	out := make([]time.Duration, len(vals))
	for i, v := range vals {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 100; i++ {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		p      float64
		want   time.Duration
		beyond int
	}{
		{0.50, 50 * time.Millisecond, 50},
		{0.90, 90 * time.Millisecond, 10},
		{0.99, 99 * time.Millisecond, 1},
		{1.00, 100 * time.Millisecond, 0},
	} {
		got, beyond := percentile(xs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%.2f = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
}

func TestLatencyPercentileNeedsTenBeyond(t *testing.T) {
	xs := msList(5, 1, 4, 2, 3)
	if _, _, err := latencyPercentile(xs, 0.5); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("p50 of 5 samples: err = %v, want a floor violation", err)
	}
	var many []time.Duration
	for i := 0; i < 100; i++ {
		many = append(many, time.Duration(100-i)*time.Millisecond)
	}
	v, beyond, err := latencyPercentile(many, 0.9)
	if err != nil || v != 90*time.Millisecond || beyond != 10 {
		t.Fatalf("p90 of 1..100ms = %v, %d beyond, %v", v, beyond, err)
	}
	if _, _, err := latencyPercentile(many[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond and must fail")
	}
}

func TestFailedRequestsAreMisses(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 80; i++ {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		xs = append(xs, failedLatency)
	}
	// p90 falls among the failures: the slowest completed request stands in.
	v, beyond, err := latencyPercentile(xs, 0.9)
	if err != nil || v != 80*time.Millisecond || beyond != 10 {
		t.Fatalf("p90 with 20%% failures = %v, %d beyond, %v", v, beyond, err)
	}
	v, _, _ = latencyPercentile(xs, 0.5)
	if v != 50*time.Millisecond {
		t.Fatalf("p50 with 20%% failures = %v, want 50ms", v)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3,4) = %v", r)
	}
	if r := ratio(3, 0); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio(3,0) = %v, want 0", r)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "engine", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "graph", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "store", Start: 15, End: 20},
		{ID: 5, Parent: 0, Layer: "request", Start: 200, End: 210},
		{ID: 6, Parent: 5, Layer: "engine", Start: 205, End: 230}, // runs past its parent
	}
	got := selfTimes(descendants(spans, func(root span) bool { return root.ID == 1 }))
	want := map[string]time.Duration{"request": 50, "engine": 25, "graph": 30, "store": 5}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s self = %v, want %v", layer, got[layer], d)
		}
	}
	all := selfTimes(spans)
	if all["request"] != 50+5 {
		t.Errorf("clipped child: request self = %v, want 55", all["request"])
	}
}
