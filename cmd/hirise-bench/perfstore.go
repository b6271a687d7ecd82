package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/hirise/internal/store"
)

// Store rows: one op is one operation of the served-result store on a
// 2 KiB payload, about the size of a served one-point loadsweep result.
// The disk rows run in a fresh temp dir through the store's FS seam, on
// a wrapper over the OS that times every call, so the put's cost can be
// split by syscall (printed to stderr after the row).
const perfStorePayload = 2048

// perfKey returns the i-th row key: a SHA-256, so keys spread over the
// 256 shard directories the way real keys do.
func perfKey(i int) store.Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return sha256.Sum256(b[:])
}

// timedFS is the OS filesystem with a running total of the time spent
// in, and the number of calls to, each FS method.
type timedFS struct {
	ns, calls [6]int64 // indexed by the fsOps constants
}

const (
	fsMkdirAll = iota
	fsCreateTemp
	fsWrite
	fsClose
	fsRename
	fsRemove
)

var fsOpNames = [6]string{"MkdirAll", "CreateTemp", "Write", "Close", "Rename", "Remove"}

func (t *timedFS) time(op int, start time.Time) {
	t.ns[op] += time.Since(start).Nanoseconds()
	t.calls[op]++
}

func (t *timedFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (t *timedFS) MkdirAll(path string) error {
	defer t.time(fsMkdirAll, time.Now())
	return os.MkdirAll(path, 0o755)
}

func (t *timedFS) CreateTemp(dir, pattern string) (store.File, error) {
	defer t.time(fsCreateTemp, time.Now())
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t}, nil
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	defer t.time(fsRename, time.Now())
	return os.Rename(oldpath, newpath)
}

func (t *timedFS) Remove(name string) error {
	defer t.time(fsRemove, time.Now())
	return os.Remove(name)
}

type timedFile struct {
	*os.File
	t *timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	defer f.t.time(fsWrite, time.Now())
	return f.File.Write(p)
}

func (f timedFile) Close() error {
	defer f.t.time(fsClose, time.Now())
	return f.File.Close()
}

// split renders the per-put time of each FS call, in microseconds.
func (t *timedFS) split(puts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "store/DiskPut per put, by FS call (us):")
	for op, name := range fsOpNames {
		fmt.Fprintf(&b, " %s %.1f (x%.2f)", name,
			float64(t.ns[op])/1e3/float64(puts), float64(t.calls[op])/float64(puts))
	}
	return b.String()
}

// perfStoreDir makes a temp dir for one store row; the returned func
// removes it.
func perfStoreDir(b *testing.B) (string, func()) {
	dir, err := os.MkdirTemp("", "hirise-perf-store-")
	if err != nil {
		b.Fatal(err)
	}
	return dir, func() { os.RemoveAll(dir) }
}

// perfStorePut benchmarks one persisted miss per op: GetOrCompute on a
// fresh key whose computation returns the payload at once, on a store
// with no memory front, so each op is the disk lookup that misses, the
// in-flight bookkeeping and the atomic temp-file-and-rename put. After
// each run, *split holds that run's per-put time by FS call.
func perfStorePut(split *string) func(b *testing.B) {
	return func(b *testing.B) {
		dir, cleanup := perfStoreDir(b)
		defer cleanup()
		fs := &timedFS{}
		s, err := store.Open(dir, store.Options{MemEntries: -1, FS: fs})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, perfStorePayload)
		compute := func(context.Context) ([]byte, error) { return payload, nil }
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.GetOrCompute(ctx, perfKey(i), compute); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := s.Stats(); st.WriteErrors > 0 {
			b.Fatalf("%d disk writes failed", st.WriteErrors)
		}
		*split = fs.split(b.N)
	}
}

// perfStoreGet benchmarks one disk hit per op: Get on one of 256
// entries already on disk, through a store with no memory front, so
// every op reads, validates and decodes the entry file.
func perfStoreGet(b *testing.B) {
	dir, cleanup := perfStoreDir(b)
	defer cleanup()
	s, err := store.Open(dir, store.Options{MemEntries: -1, FS: &timedFS{}})
	if err != nil {
		b.Fatal(err)
	}
	const entries = 256
	payload := make([]byte, perfStorePayload)
	for i := 0; i < entries; i++ {
		if _, _, err := s.GetOrCompute(context.Background(), perfKey(i),
			func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(perfKey(i % entries)); !ok {
			b.Fatal("disk entry missing")
		}
	}
}

// perfStoreMemHit benchmarks one memory hit per op: Get on a key the
// memory front holds.
func perfStoreMemHit(b *testing.B) {
	s, err := store.Open("", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	key := perfKey(0)
	payload := make([]byte, perfStorePayload)
	if _, _, err := s.GetOrCompute(context.Background(), key,
		func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("memory entry missing")
		}
	}
}
