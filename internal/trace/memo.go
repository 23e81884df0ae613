package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"cloversim/internal/memsim"
)

// maxMemoEntries caps the loops one memo stores, at about 150 bytes
// each. Past it, further distinct loops replay without being stored.
const maxMemoEntries = 1 << 14

// Memo is a content-addressed store of loop replays, shared by the
// executors of one campaign. A loop replay into a pristine hierarchy is
// a pure function of the hierarchy's Shape and of the operation sequence
// the replay hands memsim: the only randomness, SpecI2M's claim dice,
// is drawn by the store engine before memsim sees an operation. The memo
// keys each replay by the SHA-256 of exactly those (see Executor.Replay)
// and keeps its counter delta and final prefetch cursor, so every later
// loop with the same key (the other rank groups of a cell, loops that
// draw no dice, machines with matching caches) is served without
// simulating it, bit for bit as if it had been.
//
// Lookups are single-flight: an executor that asks for a key another is
// replaying waits for that replay instead of repeating it. A memo is
// safe for concurrent use. Which executor replays a key and which are
// served depends on scheduling, so Stats never reaches campaign output.
type Memo struct {
	mu       sync.Mutex
	limit    int
	done     map[memoKey]memoValue
	inflight map[memoKey]chan struct{}
	stats    MemoStats
}

type memoKey [sha256.Size]byte

// memoValue is what one replay did to a pristine hierarchy: the counter
// delta, Flush write-backs included, and the prefetch slot cursor it
// left behind.
type memoValue struct {
	delta  memsim.Counts
	cursor uint8
}

// MemoStats counts a memo's lookups.
type MemoStats struct {
	Hits    int64 // loops served without simulating them
	Replays int64 // loops simulated
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return newMemo(maxMemoEntries) }

func newMemo(limit int) *Memo {
	return &Memo{limit: limit, done: map[memoKey]memoValue{}, inflight: map[memoKey]chan struct{}{}}
}

// Stats returns the memo's lookup counts so far.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// memoWaitHook is a test seam: when set, it runs whenever a lookup
// starts waiting for another executor's replay of its key.
var memoWaitHook func()

// do returns the value stored under k and true, or runs replay, stores
// its value and returns it with false. A caller asking for a key that is
// being replayed waits for that replay. A replay that panics stores
// nothing: its waiters wake and one of them replays in its place.
func (m *Memo) do(k memoKey, replay func() memoValue) (memoValue, bool) {
	m.mu.Lock()
	for {
		if v, ok := m.done[k]; ok {
			m.stats.Hits++
			m.mu.Unlock()
			return v, true
		}
		wait, busy := m.inflight[k]
		if !busy {
			break
		}
		m.mu.Unlock()
		if memoWaitHook != nil {
			memoWaitHook()
		}
		<-wait
		m.mu.Lock()
	}
	m.stats.Replays++
	if len(m.done)+len(m.inflight) >= m.limit {
		m.mu.Unlock()
		return replay(), false
	}
	wait := make(chan struct{})
	m.inflight[k] = wait
	m.mu.Unlock()

	var v memoValue
	ok := false
	defer func() {
		m.mu.Lock()
		if ok {
			m.done[k] = v
		}
		delete(m.inflight, k)
		m.mu.Unlock()
		close(wait)
	}()
	v = replay()
	ok = true
	return v, false
}

type memoCtxKey struct{}

// WithMemo returns a copy of ctx carrying m as the campaign's loop memo.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

// ContextMemo returns the campaign memo ctx carries, or a new memo
// private to the caller when it carries none.
func ContextMemo(ctx context.Context) *Memo {
	if m, ok := ctx.Value(memoCtxKey{}).(*Memo); ok && m != nil {
		return m
	}
	return NewMemo()
}

// keyerFlush is the size of the buffer a keyer fills before it hands
// the bytes to the hash.
const keyerFlush = 4096

// keyer is the backend of a dry pass: it digests each operation instead
// of performing it. An executor keeps one and reuses it for every loop.
type keyer struct {
	h   hash.Hash
	buf []byte
}

// reset starts a key: the hierarchy shape comes first, in fixed width.
func (k *keyer) reset(s memsim.Shape) {
	if k.h == nil {
		k.h, k.buf = sha256.New(), make([]byte, 0, keyerFlush)
	}
	k.h.Reset()
	b := k.buf[:0]
	for i := range s.Sets {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Sets[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Ways[i]))
	}
	var pf byte
	if s.PFOn {
		pf = 1
	}
	b = append(b, pf)
	k.buf = binary.LittleEndian.AppendUint64(b, uint64(s.PFCursor))
}

// AccessRange appends one operation as (kind, start, n). Empty runs are
// skipped, as memsim ignores them.
func (k *keyer) AccessRange(start, n int64, kind memsim.AccessKind) {
	if n <= 0 {
		return
	}
	if len(k.buf) > keyerFlush-17 {
		k.h.Write(k.buf)
		k.buf = k.buf[:0]
	}
	b := append(k.buf, byte(kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(start))
	k.buf = binary.LittleEndian.AppendUint64(b, uint64(n))
}

// sum returns the key of everything appended since reset.
func (k *keyer) sum() (key memoKey) {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
	k.h.Sum(key[:0])
	return key
}
