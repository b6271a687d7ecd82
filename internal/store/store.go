// Package store is a content-addressed, disk-persistent result store for
// deterministic computations. The repository's simulations are pure
// functions of (experiment kind, full configuration, seed derivation,
// model version) — the determinism the pool/sim layers enforce — so a
// completed result can be reused forever, shared between processes, and
// served to many clients without re-simulation.
//
// The store is three layers:
//
//   - an in-memory LRU front, bounded by entry count and total bytes;
//   - a singleflight layer that deduplicates identical in-flight
//     computations — concurrent requests for the same key run the
//     computation once and share its result, and the computation is
//     cancelled only when every waiter has gone away;
//   - a disk layer of checksummed, atomically-written entry files.
//     Loading is corruption-tolerant: a truncated, tampered-with, or
//     otherwise invalid entry is treated as a miss (and deleted), never
//     as a fatal error — the result is simply recomputed.
//
// Keys are SHA-256 over a canonical JSON encoding of (model version,
// kind, payload), so any change to the simulator's behaviour is a
// one-line bump of internal/version.Model away from invalidating every
// stale entry at once.
package store

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/reprolab/hirise/internal/version"
)

// Key addresses one result: the SHA-256 of its canonical identity.
type Key [sha256.Size]byte

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String. It is how the
// serving layer turns a /store/{key} path element back into a key.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("store: bad key %q: %w", s, err)
	}
	if len(b) != sha256.Size {
		return k, fmt.Errorf("store: bad key %q: %d bytes, want %d", s, len(b), sha256.Size)
	}
	copy(k[:], b)
	return k, nil
}

// Options tunes a Store.
type Options struct {
	// MemEntries bounds the in-memory LRU front by entry count
	// (default 256; negative disables the memory front).
	MemEntries int
	// MemBytes bounds the LRU front by total payload bytes
	// (default 64 MiB).
	MemBytes int64
	// ModelVersion is the model fingerprint folded into every key.
	// Empty selects version.Model, the package default. Tests use this
	// to prove that a fingerprint bump invalidates old entries.
	ModelVersion string
	// FS overrides the disk layer's filesystem (nil selects the real
	// one). It exists as a fault-injection seam: tests wrap the OS
	// filesystem with failing writes (ENOSPC) and reads to prove the
	// store degrades to compute-without-cache instead of failing jobs.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.MemEntries == 0 {
		o.MemEntries = 256
	}
	if o.MemBytes == 0 {
		o.MemBytes = 64 << 20
	}
	if o.ModelVersion == "" {
		o.ModelVersion = version.Model
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// Stats counts store activity. Snapshot via Store.Stats.
type Stats struct {
	// MemHits and DiskHits count lookups served from each layer.
	MemHits, DiskHits int64
	// Misses counts lookups that ran the computation.
	Misses int64
	// Shared counts callers that joined another caller's in-flight
	// computation instead of starting their own.
	Shared int64
	// Corrupt counts disk entries rejected (and removed) by validation.
	Corrupt int64
	// WriteErrors counts failed disk writes (the result is still
	// returned to the caller; only persistence is lost).
	WriteErrors int64
}

// Store is a content-addressed result store. All methods are safe for
// concurrent use. Returned payloads are shared, immutable snapshots:
// callers must not modify them.
type Store struct {
	dir  string // "" = memory-only
	opts Options

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *entry
	byKey   map[Key]*list.Element
	memSize int64
	flight  map[Key]*call

	memHits, diskHits, misses, shared, corrupt, writeErrs atomic.Int64
}

type entry struct {
	key  Key
	data []byte
}

// call is one in-flight computation and its waiters.
type call struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by Store.mu; 0 => cancel the computation
	data    []byte
	err     error
}

// Open returns a store rooted at dir, creating it if needed. An empty
// dir yields a memory-only store (no persistence). The directory may be
// shared by any number of Stores and processes — entries are immutable
// and written atomically, so concurrent writers at worst duplicate work.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:    dir,
		opts:   opts.withDefaults(),
		lru:    list.New(),
		byKey:  map[Key]*list.Element{},
		flight: map[Key]*call{},
	}
	if dir != "" {
		if err := s.initDir(); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return s, nil
}

// KeyOf derives the content address of a computation from its kind (a
// short namespace string, e.g. "experiment" or "loadsweep") and its
// payload — a JSON-marshalable value that captures every input that
// influences the result, and nothing that doesn't (worker counts,
// contexts, progress hooks). The store's model-version fingerprint is
// folded in, so behaviour changes invalidate old entries wholesale.
func (s *Store) KeyOf(kind string, payload any) (Key, error) {
	canonical := struct {
		Model   string `json:"model"`
		Kind    string `json:"kind"`
		Payload any    `json:"payload"`
	}{s.opts.ModelVersion, kind, payload}
	b, err := json.Marshal(canonical)
	if err != nil {
		return Key{}, fmt.Errorf("store: canonicalize %s key: %w", kind, err)
	}
	return sha256.Sum256(b), nil
}

// Get returns the cached payload for key, if present in memory or on
// disk, without ever computing anything.
func (s *Store) Get(key Key) ([]byte, bool) {
	if data, ok := s.memGet(key); ok {
		s.memHits.Add(1)
		return data, true
	}
	if data, ok := s.diskGet(key); ok {
		s.diskHits.Add(1)
		s.memPut(key, data)
		return data, true
	}
	return nil, false
}

// GetOrCompute returns the payload for key, computing it at most once
// across all concurrent callers. The returned bool reports whether the
// payload came from cache (memory or disk) rather than from running
// compute.
//
// compute receives a context that stays live while at least one caller
// is still waiting: a caller whose own ctx is cancelled detaches with
// ctx's error, and only when the last waiter detaches is the
// computation itself cancelled — one client giving up never aborts a
// result another client is still waiting for. On success the payload is
// written to the memory front and, best-effort, to disk (a disk write
// failure loses persistence, not the result).
func (s *Store) GetOrCompute(ctx context.Context, key Key, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	if data, ok := s.Get(key); ok {
		return data, true, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}

	s.mu.Lock()
	// Re-check the memory front under the lock: a computation may have
	// stored its result and left the flight table since the lookup
	// above, and would otherwise run again.
	if data, ok := s.memGetLocked(key); ok {
		s.mu.Unlock()
		s.memHits.Add(1)
		return data, true, nil
	}
	if c, ok := s.flight[key]; ok {
		c.waiters++
		s.mu.Unlock()
		s.shared.Add(1)
		return s.wait(ctx, c)
	}
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.flight[key] = c
	s.mu.Unlock()
	s.misses.Add(1)

	go func() {
		data, err := compute(cctx)
		if err == nil {
			s.memPut(key, data)
			if werr := s.diskPut(key, data); werr != nil {
				s.writeErrs.Add(1)
			}
		}
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		c.data, c.err = data, err
		close(c.done)
		cancel()
	}()
	return s.wait(ctx, c)
}

// wait blocks until the call completes or ctx is cancelled. A cancelled
// waiter detaches; the last detaching waiter cancels the computation.
func (s *Store) wait(ctx context.Context, c *call) ([]byte, bool, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-c.done:
		if c.err != nil {
			return nil, false, c.err
		}
		return c.data, false, nil
	case <-ctxDone:
		s.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		s.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, false, ctx.Err()
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		MemHits:     s.memHits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Shared:      s.shared.Load(),
		Corrupt:     s.corrupt.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
}

// memGet looks the key up in the LRU front, promoting it on hit.
func (s *Store) memGet(key Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memGetLocked(key)
}

// memGetLocked is memGet for a caller already holding s.mu.
func (s *Store) memGetLocked(key Key) ([]byte, bool) {
	if s.opts.MemEntries < 0 {
		return nil, false
	}
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).data, true
}

// memPut inserts the payload at the front of the LRU, evicting from the
// back until the count and byte bounds hold again.
func (s *Store) memPut(key Key, data []byte) {
	if s.opts.MemEntries < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.memSize += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		s.lru.MoveToFront(el)
	} else {
		s.byKey[key] = s.lru.PushFront(&entry{key: key, data: data})
		s.memSize += int64(len(data))
	}
	for s.lru.Len() > s.opts.MemEntries || s.memSize > s.opts.MemBytes {
		back := s.lru.Back()
		if back == nil || s.lru.Len() == 1 {
			break // always keep the entry just inserted
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.byKey, e.key)
		s.memSize -= int64(len(e.data))
	}
}
