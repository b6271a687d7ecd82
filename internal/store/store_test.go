package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/leakcheck"
)

func mustKey(t *testing.T, s *Store, kind string, payload any) Key {
	t.Helper()
	k, err := s.KeyOf(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func constCompute(data []byte, calls *atomic.Int64) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		return data, nil
	}
}

func TestMissThenMemoryHit(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s, "test", map[string]int{"a": 1})
	var calls atomic.Int64
	want := []byte("result-bytes")

	got, hit, err := s.GetOrCompute(context.Background(), key, constCompute(want, &calls))
	if err != nil || hit || !bytes.Equal(got, want) {
		t.Fatalf("first call: got %q hit=%v err=%v", got, hit, err)
	}
	got, hit, err = s.GetOrCompute(context.Background(), key, constCompute(want, &calls))
	if err != nil || !hit || !bytes.Equal(got, want) {
		t.Fatalf("second call: got %q hit=%v err=%v", got, hit, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if st := s.Stats(); st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 mem hit / 1 miss", st)
	}
}

func TestDiskPersistenceAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s1, "test", "persist-me")
	want := []byte("persisted payload \x00 with binary \xff bytes")
	if _, _, err := s1.GetOrCompute(context.Background(), key, constCompute(want, nil)); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory must serve the entry from
	// disk, byte-identical, without computing.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := s2.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Fatal("compute ran despite a valid disk entry")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(got, want) {
		t.Fatalf("disk reload: got %q hit=%v err=%v", got, hit, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
}

// TestCorruptEntriesRecompute proves the corruption-tolerance contract:
// a truncated, tampered-with, or garbage entry is never fatal — it is a
// miss that recomputes and heals the file.
func TestCorruptEntriesRecompute(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"empty":       func([]byte) []byte { return nil },
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad payload": func(b []byte) []byte { b[20] ^= 0x01; return b },
		"bad digest":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"garbage":     func([]byte) []byte { return []byte("not an entry at all") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			key := mustKey(t, s, "test", name)
			want := []byte("the true result: " + name)
			if _, _, err := s.GetOrCompute(context.Background(), key, constCompute(want, nil)); err != nil {
				t.Fatal(err)
			}

			p := s.path(key)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// Fresh store (empty memory front) must detect the damage,
			// recompute, and return the right bytes with no error.
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			got, hit, err := s2.GetOrCompute(context.Background(), key, constCompute(want, &calls))
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if hit || calls.Load() != 1 || !bytes.Equal(got, want) {
				t.Fatalf("got %q hit=%v calls=%d, want recompute of %q", got, hit, calls.Load(), want)
			}
			if st := s2.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v, want 1 corrupt", st)
			}

			// The healed entry must now load cleanly.
			s3, _ := Open(dir, Options{})
			if got, ok := s3.Get(key); !ok || !bytes.Equal(got, want) {
				t.Fatalf("entry not healed: got %q ok=%v", got, ok)
			}
		})
	}
}

// TestModelVersionBumpForcesRecompute is the cache-invalidation
// contract: bumping the model fingerprint must change every key, so
// stale results from an older simulator are never served.
func TestModelVersionBumpForcesRecompute(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, Options{ModelVersion: "model-test-1"})
	if err != nil {
		t.Fatal(err)
	}
	payload := struct {
		Experiment string
		Seed       uint64
	}{"table4", 1}
	oldKey := mustKey(t, old, "experiment", payload)
	if _, _, err := old.GetOrCompute(context.Background(), oldKey, constCompute([]byte("stale"), nil)); err != nil {
		t.Fatal(err)
	}

	bumped, err := Open(dir, Options{ModelVersion: "model-test-2"})
	if err != nil {
		t.Fatal(err)
	}
	newKey := mustKey(t, bumped, "experiment", payload)
	if newKey == oldKey {
		t.Fatal("model version bump did not change the key")
	}
	var calls atomic.Int64
	got, hit, err := bumped.GetOrCompute(context.Background(), newKey, constCompute([]byte("fresh"), &calls))
	if err != nil || hit || calls.Load() != 1 || string(got) != "fresh" {
		t.Fatalf("bumped store served %q hit=%v calls=%d err=%v, want recompute", got, hit, calls.Load(), err)
	}

	// The old entry is untouched — rolling back the fingerprint rolls
	// back to the old results.
	if got, ok := old.Get(oldKey); !ok || string(got) != "stale" {
		t.Fatalf("old entry lost: %q ok=%v", got, ok)
	}
}

func TestDefaultModelVersionIsPackageVersion(t *testing.T) {
	a, _ := Open("", Options{})
	b, _ := Open("", Options{ModelVersion: "something-else"})
	ka := mustKey(t, a, "k", 1)
	kb := mustKey(t, b, "k", 1)
	if ka == kb {
		t.Fatal("explicit model version did not alter the key")
	}
}

// TestSingleflightDedup proves identical concurrent computations
// collapse to one: N callers, one compute, N identical results.
func TestSingleflightDedup(t *testing.T) {
	leakcheck.Check(t)
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s, "test", "dedup")

	var calls atomic.Int64
	gate := make(chan struct{})
	compute := func(context.Context) ([]byte, error) {
		calls.Add(1)
		<-gate // hold every caller in flight
		return []byte("shared"), nil
	}

	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.GetOrCompute(context.Background(), key, compute)
		}(i)
	}
	// Let the callers pile onto the flight before releasing it. The
	// Shared counter converging to n-1 means all have joined.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Shared < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || string(results[i]) != "shared" {
			t.Fatalf("caller %d: %q err=%v", i, results[i], errs[i])
		}
	}
	if st := s.Stats(); st.Shared != n-1 {
		t.Fatalf("stats = %+v, want %d shared", st, n-1)
	}
}

// TestConcurrentCallersComputeOnce: concurrent callers of one key must
// compute it exactly once, including the interleaving where a caller's
// cache lookup misses just before another caller's computation stores
// its result and leaves the in-flight table — that caller finds
// neither, and must not compute the key again. The memory front holds
// every key, so no result is evicted while its callers still race.
func TestConcurrentCallersComputeOnce(t *testing.T) {
	const keys, callers = 2000, 4
	s, err := Open(t.TempDir(), Options{MemEntries: keys})
	if err != nil {
		t.Fatal(err)
	}
	calls := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := mustKey(t, s, "race", k)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := s.GetOrCompute(context.Background(), key, constCompute([]byte{byte(k)}, &calls[k])); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	var doubled int
	for k := range calls {
		if calls[k].Load() != 1 {
			doubled++
		}
	}
	if doubled > 0 {
		t.Fatalf("%d of %d keys computed more than once", doubled, keys)
	}
	st := s.Stats()
	if st.Misses != keys || st.MemHits+st.DiskHits+st.Shared != keys*(callers-1) {
		t.Fatalf("stats = %+v, want %d misses and %d hits or shared waits", st, keys, keys*(callers-1))
	}
}

// TestCancelledWaiterDoesNotAbortOthers: one caller giving up must not
// cancel a computation another caller still wants.
func TestCancelledWaiterDoesNotAbortOthers(t *testing.T) {
	leakcheck.Check(t)
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s, "test", "waiters")

	gate := make(chan struct{})
	computeCancelled := make(chan struct{}, 1)
	compute := func(cctx context.Context) ([]byte, error) {
		select {
		case <-gate:
			return []byte("done"), nil
		case <-cctx.Done():
			computeCancelled <- struct{}{}
			return nil, cctx.Err()
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	type res struct {
		data []byte
		err  error
	}
	r1 := make(chan res, 1)
	go func() {
		d, _, err := s.GetOrCompute(ctx1, key, compute)
		r1 <- res{d, err}
	}()
	// Wait until caller 1 is the in-flight leader.
	waitFlight(t, s, key)

	r2 := make(chan res, 1)
	go func() {
		d, _, err := s.GetOrCompute(context.Background(), key, compute)
		r2 <- res{d, err}
	}()
	waitShared(t, s, 1)

	cancel1() // caller 1 detaches; computation must keep running
	got1 := <-r1
	if !errors.Is(got1.err, context.Canceled) {
		t.Fatalf("cancelled caller got %q err=%v, want context.Canceled", got1.data, got1.err)
	}
	select {
	case <-computeCancelled:
		t.Fatal("computation was cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	got2 := <-r2
	if got2.err != nil || string(got2.data) != "done" {
		t.Fatalf("surviving caller got %q err=%v", got2.data, got2.err)
	}
}

// TestLastWaiterCancelsComputation: when every caller has gone away the
// computation's context must be cancelled so its workers are freed.
func TestLastWaiterCancelsComputation(t *testing.T) {
	leakcheck.Check(t)
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, s, "test", "abandon")

	computeCancelled := make(chan struct{})
	compute := func(cctx context.Context) ([]byte, error) {
		<-cctx.Done()
		close(computeCancelled)
		return nil, cctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(ctx, key, compute)
		done <- err
	}()
	waitFlight(t, s, key)
	cancel()

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v, want context.Canceled", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("computation context was never cancelled after the last waiter left")
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	s, _ := Open("", Options{})
	key := mustKey(t, s, "test", "err")
	boom := errors.New("boom")
	if _, _, err := s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call computes again.
	got, hit, err := s.GetOrCompute(context.Background(), key, constCompute([]byte("ok"), nil))
	if err != nil || hit || string(got) != "ok" {
		t.Fatalf("after failure: %q hit=%v err=%v", got, hit, err)
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = mustKey(t, s, "test", i)
		if _, _, err := s.GetOrCompute(context.Background(), keys[i], constCompute([]byte(fmt.Sprintf("v%d", i)), nil)); err != nil {
			t.Fatal(err)
		}
	}
	// keys[0] and keys[1] were evicted from memory but live on disk.
	before := s.Stats()
	got, ok := s.Get(keys[0])
	if !ok || string(got) != "v0" {
		t.Fatalf("evicted entry lost: %q ok=%v", got, ok)
	}
	if after := s.Stats(); after.DiskHits != before.DiskHits+1 {
		t.Fatalf("expected a disk hit for the evicted key: %+v -> %+v", before, after)
	}
}

func TestMemBytesBound(t *testing.T) {
	s, err := Open("", Options{MemEntries: 100, MemBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 80)
	k1 := mustKey(t, s, "test", "big1")
	k2 := mustKey(t, s, "test", "big2")
	s.GetOrCompute(context.Background(), k1, constCompute(big, nil))
	s.GetOrCompute(context.Background(), k2, constCompute(big, nil))
	if _, ok := s.Get(k1); ok {
		t.Fatal("byte bound did not evict the older entry")
	}
	if _, ok := s.Get(k2); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestKeyOfIsStableAndSensitive(t *testing.T) {
	s, _ := Open("", Options{})
	type payload struct {
		ID   string
		Seed uint64
	}
	a1 := mustKey(t, s, "experiment", payload{"table4", 1})
	a2 := mustKey(t, s, "experiment", payload{"table4", 1})
	b := mustKey(t, s, "experiment", payload{"table4", 2})
	c := mustKey(t, s, "loadsweep", payload{"table4", 1})
	if a1 != a2 {
		t.Fatal("identical payloads hashed differently")
	}
	if a1 == b || a1 == c {
		t.Fatal("distinct payload/kind collided")
	}
}

func TestTempFilesNotVisibleAsEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	key := mustKey(t, s, "test", "atomic")
	s.GetOrCompute(context.Background(), key, constCompute([]byte("v"), nil))
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func waitFlight(t *testing.T, s *Store, key Key) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		_, ok := s.flight[key]
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("computation never became in-flight")
}

func waitShared(t *testing.T, s *Store, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Shared < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().Shared < n {
		t.Fatalf("never reached %d shared waiters", n)
	}
}
