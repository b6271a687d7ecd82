package pool_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/pool"
)

// TestSweepContract: seeds come from the raw base seed and the index,
// results return in index order, the lowest-index error wins, and a
// cancelled ctx discards every result.
func TestSweepContract(t *testing.T) {
	got, err := pool.Sweep(nil, 5, 3, 42, func(i int, seed uint64) (uint64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range got {
		if want := pool.SeedFor(42, uint64(i)); seed != want {
			t.Fatalf("point %d seed %#x, want %#x", i, seed, want)
		}
	}

	_, err = pool.Sweep(nil, 8, 4, 1, func(i int, _ uint64) (int, error) {
		if i%3 == 2 {
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 2" {
		t.Fatalf("err = %v, want the lowest-index error (point 2)", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res, err := pool.Sweep(ctx, 8, 2, 1, func(i int, _ uint64) (int, error) {
		cancel()
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled sweep returned %v, %v; want nil, context.Canceled", res, err)
	}
}
