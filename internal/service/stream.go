package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// defaultStreamBudget is the byte budget for materialized stream buffers
// when Config.StreamBudgetBytes is unset.
const defaultStreamBudget = 64 << 20

// defaultCacheSize caps the number of cached graphs when Config.CacheSize
// is unset. Each entry holds a solver and its streams, so the byte budget
// alone (which only counts buffered results) would not bound the store's
// true footprint across many distinct graphs.
const defaultCacheSize = 64

// SolverKey identifies one ranked stream: the canonical fingerprint of the
// submitted graph (graph.Fingerprint), the canonical cost key (see
// buildCost), the width bound (-1 for unbounded), the backend kind
// serving it ("dp" or "mis"; empty means dp) and whether it is
// orbit-reduced. Fingerprint, Cost and Bound select the cache entry,
// which holds the one DP solver of that problem; Backend and Orbits
// select one of the entry's streams. A DP stream and a MIS stream produce
// different sequences, and an orbit-reduced sequence is a strict
// subsequence of the unreduced one, so those never share a buffer — but
// the plain and orbit DP streams share the entry's solver, since all
// orbit state lives in the per-stream wrapper (core.NewOrbitBackend).
type SolverKey struct {
	Fingerprint string
	Cost        string
	Bound       int
	Backend     string
	Orbits      bool
}

// slot indexes an entry's streams: dp|mis × orbits off|on.
func (k SolverKey) slot() int {
	i := 0
	if k.Backend == string(core.BackendMIS) {
		i = 2
	}
	if k.Orbits {
		i++
	}
	return i
}

// PoolStats is the solver half of the cache counters (the /v1/stats
// "pool" block). Hits count DP acquires served by a built solver or by
// joining an in-flight build, Misses the builds started, Evictions the
// built solvers dropped with their entry by the entry cap; Size is the
// number of built solvers held and Inflight the builds under way.
type PoolStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Inflight  int    `json:"inflight"`
}

// StreamStats is the stream half of the cache counters (the /v1/stats
// "streams" block).
type StreamStats struct {
	// Streams is the number of materialized streams currently held.
	Streams int `json:"streams"`
	// Cursors is the number of live references (sessions + NDJSON
	// streams) across those streams.
	Cursors int `json:"cursors"`
	// BufferedResults and Bytes describe the materialized buffers: total
	// ranks held and their estimated footprint against the byte budget.
	BufferedResults int   `json:"buffered_results"`
	Bytes           int64 `json:"bytes"`
	BudgetBytes     int64 `json:"budget_bytes"`
	// Hits and Misses count Acquire calls that found (vs created) a
	// stream for their key. A hit means the new consumer rides an
	// existing buffer instead of its own enumerator.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts stream buffers dropped by the byte budget or with
	// their entry by the entry cap; Rebuilds counts evicted streams that
	// were re-materialized because a cursor still needed their ranks.
	// Both are monotone: rebuild counts of streams that have since been
	// dropped are folded into a retired aggregate rather than vanishing.
	Evictions uint64 `json:"evictions"`
	Rebuilds  uint64 `json:"rebuilds"`
}

// cacheEntry is one problem's cached state: its DP solver (built at most
// once at a time, shared by every Acquire of the problem) and up to four
// materialized streams over it.
type cacheEntry struct {
	key     SolverKey // Backend and Orbits cleared
	elem    *list.Element
	refs    int          // handles plus Acquires in progress; referenced entries are never dropped
	solver  *core.Solver // built DP solver; nil until a build succeeds
	build   *solverBuild // in-flight build; nil when none runs
	streams [4]*streamSlot
}

// solverBuild is one in-flight solver initialization. ready is closed once
// err is set (and, on success, the solver published to its entry).
type solverBuild struct {
	ready   chan struct{}
	err     error
	waiters int
	cancel  context.CancelFunc
}

// streamSlot is one materialized stream plus its cache bookkeeping.
type streamSlot struct {
	backend core.Backend
	stream  *core.SharedStream
	bytes   int64                      // last footprint charged against the store total
	handles map[*StreamHandle]struct{} // live consumers; min position floors trims
}

// StreamStore is the serving tier's one cache: per (graph fingerprint,
// cost, bound) problem an entry holding the DP solver and the ranked
// streams materialized over it. A solver is built once per entry however
// many requests want it, and lives exactly as long as its entry. Every
// consumer of a stream (paging sessions and NDJSON streams alike) reads
// the same append-only buffer, so N concurrent clients on one graph cost
// one initialization and one enumeration, not N.
//
// Two limits bound the store. The entry cap drops the least recently used
// unreferenced entries, solver and streams together. The byte budget
// only drops buffers: past it the least recently used buffers are Reset
// (truncation-aware — the stream rebuilds lazily and replays the same
// prefix if a cursor still needs it), and unreferenced reset streams are
// removed; their entry's solver stays, so memory pressure never forces a
// new initialization.
type StreamStore struct {
	mu         sync.Mutex
	budget     int64
	maxEntries int
	entries    map[SolverKey]*cacheEntry
	lru        *list.List // of *cacheEntry; front = most recently used
	total      int64

	pool      PoolStats // counters only; Size and Inflight are counted in SolverStats
	hits      uint64
	misses    uint64
	evictions uint64

	// Production tuning, applied to streams created after Tune (see Tune).
	solveWorkers  int
	prefetchAhead int
	prefetchBytes int64
	// Pause/resume bookkeeping for streams that no longer exist survives
	// here; live-stream counters are aggregated from the entries.
	pfRetired core.PrefetchStats
	// rbRetired folds dropped streams' rebuild counts the same way, so
	// the /v1/stats rebuilds counter is monotone across churn.
	rbRetired uint64
	// closed marks the store shut down: streams created afterwards stay
	// demand-driven and parked producers are never resumed, so no
	// speculative goroutine can outlive Close.
	closed bool
}

// NewStreamStore returns a store evicting buffers beyond budgetBytes
// (<= 0 selects the 64 MiB default) and dropping unreferenced entries
// beyond maxEntries (<= 0 selects 64).
func NewStreamStore(budgetBytes int64, maxEntries int) *StreamStore {
	if budgetBytes <= 0 {
		budgetBytes = defaultStreamBudget
	}
	if maxEntries <= 0 {
		maxEntries = defaultCacheSize
	}
	return &StreamStore{
		budget:     budgetBytes,
		maxEntries: maxEntries,
		entries:    make(map[SolverKey]*cacheEntry),
		lru:        list.New(),
	}
}

// Tune configures how this store's streams produce. Each Next of a
// stream created after Tune fans its independent branch solves over
// solveWorkers goroutines (<= 1 means sequential; the emitted sequence is
// identical either way), and its speculative producer runs the
// enumeration up to prefetchAhead ranks past the fastest cursor, within
// prefetchBytes of buffered footprint (prefetchAhead <= 0 disables
// speculation, prefetchBytes <= 0 leaves it byte-unbounded). The zero
// store — no Tune — is the demand-driven sequential baseline.
func (st *StreamStore) Tune(solveWorkers, prefetchAhead int, prefetchBytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.solveWorkers = solveWorkers
	st.prefetchAhead = prefetchAhead
	st.prefetchBytes = prefetchBytes
}

// BuildFunc initializes the DP solver of a cache entry. Its context is
// cancelled when every Acquire waiting on the build has given up.
type BuildFunc func(context.Context) (*core.Solver, error)

// OpenFunc returns the backend a new stream enumerates. solver is the
// entry's DP solver when Acquire was given a BuildFunc, nil otherwise.
type OpenFunc func(solver *core.Solver) core.Backend

// StreamHandle is one consumer's reference to a materialized stream.
// Release it exactly once when the consumer is done; the buffer itself
// stays cached for future consumers until the byte budget evicts it.
type StreamHandle struct {
	store *StreamStore
	e     *cacheEntry
	i     int // index of s among e.streams
	s     *streamSlot
	pos   atomic.Int64 // last rank read; the store trims no window past it
	once  sync.Once

	// Solver is the DP solver behind the stream, nil for streams opened
	// without a BuildFunc.
	Solver *core.Solver
	// SolverHit reports that the solver came from the cache or from joining
	// an in-flight build — no new initialization started for this Acquire.
	// StreamHit reports that the stream already existed.
	SolverHit, StreamHit bool
}

// Backend returns the engine the stream enumerates.
func (h *StreamHandle) Backend() core.Backend { return h.s.backend }

// Acquire returns a handle on the materialized stream for key. When build
// is non-nil the entry's DP solver is made ready first: a cached solver is
// reused, a build in flight is joined, and otherwise build runs in its own
// goroutine under a context detached from ctx. ctx cancels only this
// caller's wait; the build itself is cancelled when its last waiter gives
// up, and a failed (or panicking) build is not cached. On a stream miss
// the stream enumerates open(solver). Any core.Backend works here because
// every backend's enumeration order is deterministic, which is what the
// evict-and-replay contract of SharedStream needs; the caller must ensure
// key uniquely identifies what open returns.
func (st *StreamStore) Acquire(ctx context.Context, key SolverKey, build BuildFunc, open OpenFunc) (*StreamHandle, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ek := SolverKey{Fingerprint: key.Fingerprint, Cost: key.Cost, Bound: key.Bound}
	e, ok := st.entries[ek]
	if !ok {
		e = &cacheEntry{key: ek}
		st.entries[ek] = e
		e.elem = st.lru.PushFront(e)
	}
	st.lru.MoveToFront(e.elem)
	e.refs++ // held from here on by the handle
	if !ok {
		st.capLocked()
	}
	h := &StreamHandle{store: st, e: e}
	if build != nil {
		hit, err := st.solverLocked(ctx, e, build)
		if err != nil {
			e.refs--
			st.dropIfEmptyLocked(e)
			return nil, err
		}
		h.Solver, h.SolverHit = e.solver, hit
	}
	i := key.slot()
	var backend core.Backend
	if e.streams[i] == nil {
		// open is the caller's code, so it runs without the store lock; the
		// entry stays referenced meanwhile, and should a racing Acquire
		// create the stream first, this backend is simply dropped.
		st.mu.Unlock()
		backend = open(h.Solver)
		st.mu.Lock()
	}
	s := e.streams[i]
	if h.StreamHit = s != nil; s != nil {
		st.hits++
	} else {
		st.misses++
		workers := st.solveWorkers
		s = &streamSlot{
			backend: backend,
			// Background context: the producer must outlive any single
			// consumer, and consumer cancellation is observed in At. Each
			// Next fans its independent branch solves over the store's
			// worker pool size.
			stream: core.NewSharedStream(func() *core.Enumerator {
				return backend.EnumerateParallelContext(context.Background(), workers)
			}),
			handles: make(map[*StreamHandle]struct{}),
		}
		if !st.closed {
			s.stream.ConfigurePrefetch(st.prefetchAhead, st.prefetchBytes)
		}
		e.streams[i] = s
	}
	h.i, h.s = i, s
	s.handles[h] = struct{}{}
	if len(s.handles) == 1 && !st.closed {
		// First consumer (back): un-park the speculative producer. A no-op
		// on fresh streams, which start unpaused. After Close the resume is
		// skipped — shutdown just stopped these producers, and a post-Close
		// acquire must stay demand-driven.
		s.stream.ResumePrefetch()
	}
	return h, nil
}

// solverLocked makes e's solver ready, starting or joining its build. It
// is called and returns with st.mu held, releasing it while it waits. The
// hit result reports that no build was started for this call.
func (st *StreamStore) solverLocked(ctx context.Context, e *cacheEntry, build BuildFunc) (hit bool, err error) {
	if e.solver != nil {
		st.pool.Hits++
		return true, nil
	}
	b := e.build
	if hit = b != nil; hit {
		st.pool.Hits++
	} else {
		st.pool.Misses++
		bctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		b = &solverBuild{ready: make(chan struct{}), cancel: cancel}
		e.build = b
		go func() {
			var solver *core.Solver
			var err error
			// Publishing is deferred so that it also runs after a panic in
			// build: the panic becomes the build's error, nothing is cached,
			// and the daemon keeps serving.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("solver build panicked: %v", r)
				}
				cancel()
				st.mu.Lock()
				defer st.mu.Unlock()
				b.err = err
				if e.build == b {
					// An abandoned build is no longer e.build: its result, even
					// a success that raced the cancellation, is discarded.
					e.build = nil
					if err == nil {
						e.solver = solver
					}
				}
				close(b.ready)
			}()
			if solver, err = build(bctx); solver == nil && err == nil {
				err = errors.New("service: solver build returned nil")
			}
		}()
	}
	b.waiters++
	st.mu.Unlock()
	select {
	case <-b.ready:
	case <-ctx.Done():
	}
	st.mu.Lock()
	b.waiters--
	select {
	case <-b.ready:
		// Finished, possibly while we were giving up; its result stands.
		return hit, b.err
	default:
	}
	if b.waiters == 0 {
		// The last waiter left an unfinished build: cancel it, and let the
		// next Acquire start afresh.
		b.cancel()
		if e.build == b {
			e.build = nil
		}
	}
	return hit, ctx.Err()
}

// capLocked trims the table to the entry cap from the cold end. Only
// unreferenced entries can go, solver and streams together; referenced
// ones are bounded by the session/stream population.
func (st *StreamStore) capLocked() {
	for el := st.lru.Back(); el != nil && len(st.entries) > st.maxEntries; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); e.refs == 0 {
			st.dropEntryLocked(e)
		}
		el = prev
	}
}

// dropEntryLocked detaches e from the table and LRU, counting its solver
// and streams as evicted. e must be unreferenced (so no build is in
// flight: a waiting Acquire holds a reference).
func (st *StreamStore) dropEntryLocked(e *cacheEntry) {
	if e.solver != nil {
		st.pool.Evictions++
	}
	for i, s := range e.streams {
		if s != nil {
			st.dropStreamLocked(e, i)
			st.evictions++
		}
	}
	st.lru.Remove(e.elem)
	e.elem = nil
	delete(st.entries, e.key)
}

// dropIfEmptyLocked drops e when it holds nothing worth caching — no
// reference, solver, build or stream.
func (st *StreamStore) dropIfEmptyLocked(e *cacheEntry) {
	if e.elem != nil && e.refs == 0 && e.solver == nil && e.build == nil && e.streams == [4]*streamSlot{} {
		st.dropEntryLocked(e)
	}
}

// dropStreamLocked removes e's i-th stream: it reclaims the byte
// accounting, folds the stream's counters into the retired aggregates
// and terminates its speculative producer. Lock order store.mu →
// stream.mu is safe: SharedStream never calls back into the store.
func (st *StreamStore) dropStreamLocked(e *cacheEntry, i int) {
	s := e.streams[i]
	e.streams[i] = nil
	st.total -= s.bytes
	s.bytes = 0
	st.pfRetired = sumPrefetchStats(st.pfRetired, s.stream.PrefetchStats())
	st.rbRetired += s.stream.Rebuilds()
	s.stream.StopPrefetch()
}

// sumPrefetchStats folds b into a (counters add; the high-water mark is
// the max).
func sumPrefetchStats(a, b core.PrefetchStats) core.PrefetchStats {
	a.Hits += b.Hits
	a.DemandSolves += b.DemandSolves
	a.PrefetchSolves += b.PrefetchSolves
	a.Pauses += b.Pauses
	a.Resumes += b.Resumes
	if b.LookaheadHighWater > a.LookaheadHighWater {
		a.LookaheadHighWater = b.LookaheadHighWater
	}
	return a
}

// forStreamsLocked calls f on every held stream.
func (st *StreamStore) forStreamsLocked(f func(*streamSlot)) {
	for _, e := range st.entries {
		for _, s := range e.streams {
			if s != nil {
				f(s)
			}
		}
	}
}

// PrefetchStats aggregates the demand-vs-speculation counters over every
// stream this store has ever held (dropped streams' counts are folded
// into a retired aggregate, so the numbers are monotone).
func (st *StreamStore) PrefetchStats() core.PrefetchStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.pfRetired
	st.forStreamsLocked(func(s *streamSlot) {
		out = sumPrefetchStats(out, s.stream.PrefetchStats())
	})
	return out
}

// Close terminates every stream's speculative producer and marks the
// store closed. Buffers and cursors stay readable (demand-driven); for
// server shutdown, where parked prefetch goroutines should not outlive
// the service. Acquire keeps working after Close — late requests during
// the HTTP drain window still need their streams — but the streams it
// creates are never configured for speculation and parked producers are
// never resumed, so shutdown cannot be undone by a straggler.
func (st *StreamStore) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.forStreamsLocked(func(s *streamSlot) { s.stream.StopPrefetch() })
}

// touchStride batches the store bookkeeping: a cursor refreshes byte
// accounting and LRU recency once every touchStride ranks (plus at
// stream end) instead of on every read, keeping the store mutex off the
// pure-memory fan-out hot path. The cost is bounded staleness — the
// budget can overshoot by up to touchStride results per active cursor
// between touches.
const touchStride = 16

// At returns the result of rank i from the shared buffer, producing it
// (and everything before it) on demand — see core.SharedStream.At.
func (h *StreamHandle) At(ctx context.Context, i int) (*core.Result, bool, error) {
	// Publish the position before reading so a concurrent trim never
	// slides the window past a rank someone is about to return.
	h.pos.Store(int64(i))
	r, ok, err := h.s.stream.At(ctx, i)
	if i%touchStride == 0 || !ok || err != nil {
		h.store.touch(h)
	}
	return r, ok, err
}

// BufferedAhead reports how many results past position pos have already
// been materialized — the ranks a consumer at pos can read without any
// solving work (ranks a budget trim dropped would need a rebuild, so
// this is the optimistic count). Under speculative prefetch the stream's
// producer actively keeps this positive for cursors inside the lookahead
// budget.
func (h *StreamHandle) BufferedAhead(pos int) int {
	if n := h.s.stream.Produced() - pos; n > 0 {
		return n
	}
	return 0
}

// Buffered returns the number of materialized ranks.
func (h *StreamHandle) Buffered() int { return h.s.stream.Buffered() }

// Release drops this consumer's reference. Idempotent.
func (h *StreamHandle) Release() {
	h.once.Do(func() { h.store.release(h) })
}

func (st *StreamStore) release(h *StreamHandle) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := h.s
	delete(s.handles, h)
	h.e.refs--
	if len(s.handles) > 0 {
		return
	}
	// No live consumers: park the speculative producer so an abandoned
	// stream burns no CPU.
	s.stream.PausePrefetch()
	// A dropped (or never-produced) buffer holds no bytes, so the byte
	// budget would never reclaim it; drop the stream here to keep the
	// table bounded. Buffers with content stay cached — they are the
	// fan-out asset — until the budget evicts them.
	if s.stream.Buffered() == 0 && h.e.streams[h.i] == s {
		st.dropStreamLocked(h.e, h.i)
		st.dropIfEmptyLocked(h.e)
	}
}

// touch refreshes the recency of h's entry and the byte accounting of its
// stream, then reclaims space in two steps. First, a stream that alone
// exceeds the whole budget is not allowed to grow without bound: its window is trimmed from the
// oldest rank up to the position of its *slowest* live cursor, so a lone
// NDJSON client over a huge enumeration holds ~budget bytes. Trimming
// past a live cursor would be worse than the memory it saves — the
// lagging cursor's next read would Reset the whole stream and the leading
// cursor would re-enumerate its full prefix, ping-ponging on every page —
// so the buffer is instead bounded by budget + the lag between slowest
// and fastest cursor, and idle-session eviction bounds that lag in time.
// Second, while the store total still exceeds the budget and other
// streams hold bytes, the least recently used buffers are dropped —
// never the stream being touched, so the hot stream cannot thrash itself.
// Unreferenced dropped streams go with their buffer; the entry and its
// solver stay.
func (st *StreamStore) touch(h *StreamHandle) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, s := h.e, h.s
	if e.elem == nil || e.streams[h.i] != s {
		return // detached from the store; no accounting
	}
	st.lru.MoveToFront(e.elem)
	nb := s.stream.Bytes()
	if nb > st.budget {
		floor := -1
		for h := range s.handles {
			if p := int(h.pos.Load()); floor == -1 || p < floor {
				floor = p
			}
		}
		if floor > 0 {
			// Lock order store.mu → stream.mu is safe: SharedStream never
			// calls back into the store.
			s.stream.TrimOver(st.budget, floor)
			nb = s.stream.Bytes()
		}
	}
	st.total += nb - s.bytes
	s.bytes = nb
	// Walk the LRU only while some *other* stream holds reclaimable bytes;
	// once the overflow is entirely the touched stream's own (post-trim)
	// window, scanning the list would be O(entries) of useless work per
	// read.
	for el := st.lru.Back(); el != nil && st.total > st.budget && st.total > s.bytes; {
		prev := el.Prev()
		v := el.Value.(*cacheEntry)
		for i, vs := range v.streams {
			if vs == nil || vs == s || vs.bytes == 0 || st.total <= st.budget {
				continue
			}
			st.total -= vs.bytes
			vs.bytes = 0
			// Reset clears the stream's demand mark too, so its speculative
			// producer (if still referenced and running) idles instead of
			// re-materializing the buffer the eviction just reclaimed.
			vs.stream.Reset()
			st.evictions++
			if len(vs.handles) == 0 {
				st.dropStreamLocked(v, i)
			}
		}
		st.dropIfEmptyLocked(v)
		el = prev
	}
}

// Stats returns a snapshot of the stream counters.
func (st *StreamStore) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := StreamStats{
		Bytes:       st.total,
		BudgetBytes: st.budget,
		Hits:        st.hits,
		Misses:      st.misses,
		Evictions:   st.evictions,
		Rebuilds:    st.rbRetired,
	}
	st.forStreamsLocked(func(s *streamSlot) {
		out.Streams++
		out.Cursors += len(s.handles)
		out.BufferedResults += s.stream.Buffered()
		out.Rebuilds += s.stream.Rebuilds()
	})
	return out
}

// SolverStats returns a snapshot of the solver counters, plus the
// incremental-DP reuse counters and the atom decompositions summed over
// the built solvers held. Counters of dropped solvers leave those sums;
// the reuse ratio is still the right signal for how much of the
// enumeration load the incremental path absorbs.
func (st *StreamStore) SolverStats() (PoolStats, core.ReuseStats, AtomStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pool := st.pool
	var reuse core.ReuseStats
	var atoms AtomStats
	for _, e := range st.entries {
		if e.build != nil {
			pool.Inflight++
		}
		if e.solver == nil {
			continue
		}
		pool.Size++
		r := e.solver.ReuseStats()
		reuse.ConstrainedSolves += r.ConstrainedSolves
		reuse.DirtyBlocks += r.DirtyBlocks
		reuse.ReusedBlocks += r.ReusedBlocks
		infos := e.solver.AtomInfos()
		if infos == nil {
			continue
		}
		atoms.DecomposedSolvers++
		atoms.TotalAtoms += len(infos)
		for _, ai := range infos {
			atoms.LargestAtom = max(atoms.LargestAtom, ai.Vertices)
			if ai.Ready {
				atoms.ReadySubSolvers++
			}
		}
	}
	return pool, reuse, atoms
}
