package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(100, 50, 16, 8); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		requests, keyspace, radix int
		rate                      float64
		want                      string
	}{
		{0, 16, 8, 50, "-requests 0"},
		{-3, 16, 8, 50, "-requests -3"},
		{100, 16, 8, 0, "-rate 0"},
		{100, 16, 8, -1, "-rate -1"},
		{100, 16, 8, math.NaN(), "-rate NaN"},
		{100, 0, 8, 50, "-keyspace 0"},
		{100, 16, 0, 50, "-radix 0"},
		{100, 16, -8, 50, "-radix -8"},
		{100, 16, 100000, 50, "-radix 100000"},
	} {
		err := checkFlags(tc.requests, tc.rate, tc.keyspace, tc.radix)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming it", tc.want, err)
		}
	}
}
