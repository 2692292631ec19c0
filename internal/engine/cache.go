package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// Query caching. Three layers, from cheapest to broadest:
//
//  1. Compiled-filter programs. A filterProgram is a pure function of
//     (schema, canonical predicate text); the schema is fixed at table
//     creation, so per table each predicate compiles exactly once and is
//     shared by every subsequent query (programs are stateless at eval
//     time).
//  2. Per-shard sample partials. A cached partial (freqstats.Partial,
//     frozen at publication) saves a clean shard's whole scan — predicate
//     evaluation, gather, lineage copy and all — leaving only the k-way
//     merge and the estimators. Keyed by (predicate, aggregate attribute,
//     shard). A shard's rows change exactly when its write epoch changes:
//     every applied ingestion batch that changed the store bumps it once,
//     under the shard's write lock, for the whole batch (ingest.go; an
//     Insert is a one-row batch) — under streaming writes a shard's
//     partials go stale per batch, not per row. Staged-but-unapplied rows
//     do not move the epoch: they are invisible to scans, so a cached
//     partial is still exact for the data a scan would see. A partial is
//     therefore served while `built-at epoch == current epoch`. A stale
//     one stays cached as the base the next query catches up from: the
//     predicate runs on the rows stored since and the kept rows' lineage
//     is refreshed from the shard's delta log (delta.go), with a full
//     rescan only when the log does not reach back to the base. Since a
//     batch of a few hundred rows usually lands in every shard, this is
//     what keeps a repeated query under streaming writes from rescanning
//     the table. Cached partials are immutable (frozen) and shared
//     read-only across concurrent merges.
//  3. Whole query results (executor level, opt-in through
//     WithResultCache). Keyed by (table identity, canonical SQL) plus the
//     full vector of shard epochs captured during the scan, so a hit is
//     only possible when not a single observation changed since the
//     cached run. The estimator set is fixed at Open, so one DB's cache
//     never mixes configurations.
//
// All layers are safe for concurrent use and bounded: programs by entry
// count, partials and results by an approximate byte budget with LRU
// eviction.

// Default cache bounds for new tables.
const (
	defaultProgramCacheEntries = 128
	defaultPartialCacheBytes   = 16 << 20 // 16 MiB of sample partials per table
)

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Table.CacheStats fills the program and partial layers; DB.CacheStats
// aggregates every table and adds the result layer.
type CacheStats struct {
	ProgramHits, ProgramMisses uint64
	// BitmapHits and BitmapMisses are always zero: the per-shard
	// selection-bitmap layer they counted no longer exists. They remain
	// only so existing readers keep compiling.
	BitmapHits, BitmapMisses uint64
	// Partial* count the per-shard sample-partial layer: a hit is one
	// shard whose scan was skipped entirely because its cached partial was
	// built at the shard's current epoch. Every other shard is a miss,
	// whether it was caught up from a stale cached partial (delta.go) or
	// rescanned in full. A query over a table with one dirty shard
	// therefore accounts numShards-1 hits and 1 miss.
	PartialHits, PartialMisses uint64
	// PartialCatchUps counts the misses that were caught up from a stale
	// cached partial instead of rescanned; each is also a PartialMisses.
	PartialCatchUps          uint64
	PartialEvictions         uint64
	PartialBytes             int
	ResultHits, ResultMisses uint64
	ResultEvictions          uint64
	ResultBytes              int
	// DictEntries/DictBytes snapshot the string-dictionary footprint: the
	// total cardinality (distinct interned strings, summed over shards —
	// every shard pre-interns the empty string) and the resident bytes of
	// the interned string data. Not a cache — dictionaries are append-only
	// and never evict — but they are resident memory the dictionary
	// encoding trades for the scan speedup, so they report alongside the
	// cache budgets.
	DictEntries int
	DictBytes   int64
}

// add accumulates other into s (for DB-level aggregation).
func (s *CacheStats) add(other CacheStats) {
	s.ProgramHits += other.ProgramHits
	s.ProgramMisses += other.ProgramMisses
	s.PartialHits += other.PartialHits
	s.PartialMisses += other.PartialMisses
	s.PartialCatchUps += other.PartialCatchUps
	s.PartialEvictions += other.PartialEvictions
	s.PartialBytes += other.PartialBytes
	s.ResultHits += other.ResultHits
	s.ResultMisses += other.ResultMisses
	s.ResultEvictions += other.ResultEvictions
	s.ResultBytes += other.ResultBytes
	s.DictEntries += other.DictEntries
	s.DictBytes += other.DictBytes
}

// filterKey canonicalizes a predicate for cache keys. Expr.String renders
// the parse tree back to SQL deterministically, so structurally equal
// predicates share one key regardless of which query object they came
// from. nil (keep everything) canonicalizes to "".
func filterKey(e sqlparse.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// partialKey addresses one shard's sample partial for one (predicate,
// aggregate attribute) pair. The attribute is part of the key because the
// partial embeds the gathered values — the same predicate aggregated over
// a different column is a different partial ("" is the COUNT(*) form).
type partialKey struct {
	expr  string
	attr  string
	shard int
}

type progEntry struct {
	key  string
	prog *filterProgram
}

type partialEntry struct {
	key   partialKey
	epoch uint64
	part  *freqstats.Partial // frozen before store, immutable
	bytes int
}

// scanCache is a table's layer-1 and layer-2 cache (programs, partials).
// One mutex guards all LRU structures; hit/miss counters are atomics so
// CacheStats reads do not need the lock.
type scanCache struct {
	mu sync.Mutex

	progs    map[string]*list.Element // of *progEntry
	progLRU  list.List
	maxProgs int

	partials     map[partialKey]*list.Element // of *partialEntry
	pLRU         list.List
	pBytes       int
	maxPartBytes int

	progHits, progMisses atomic.Uint64
	pHits, pMisses       atomic.Uint64
	pEvictions           atomic.Uint64
	pDeltas              atomic.Uint64 // misses caught up from a stale partial
}

func newScanCache(maxProgs, maxPartBytes int) *scanCache {
	return &scanCache{
		progs:        make(map[string]*list.Element),
		partials:     make(map[partialKey]*list.Element),
		maxProgs:     maxProgs,
		maxPartBytes: maxPartBytes,
	}
}

// setLimits reconfigures the bounds; zero disables (and clears) the
// respective layer.
func (c *scanCache) setLimits(maxProgs, maxPartBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxProgs = maxProgs
	c.maxPartBytes = maxPartBytes
	c.evictLocked()
}

// lookupProgram returns the cached compiled program for a predicate key.
func (c *scanCache) lookupProgram(key string) (*filterProgram, bool) {
	c.mu.Lock()
	e, ok := c.progs[key]
	if ok {
		c.progLRU.MoveToFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.progMisses.Add(1)
		return nil, false
	}
	c.progHits.Add(1)
	return e.Value.(*progEntry).prog, true
}

func (c *scanCache) storeProgram(key string, prog *filterProgram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxProgs <= 0 {
		return
	}
	if e, ok := c.progs[key]; ok {
		// A concurrent miss compiled the same predicate; keep the newer
		// program (they are interchangeable) and just refresh recency.
		e.Value.(*progEntry).prog = prog
		c.progLRU.MoveToFront(e)
		return
	}
	c.progs[key] = c.progLRU.PushFront(&progEntry{key: key, prog: prog})
	c.evictLocked()
}

// lookupPartial returns the cached sample partial for a key and the epoch
// it was built at; hit reports that this is the given epoch. A stale
// entry (hit false, part non-nil) stays cached: it is the base the caller
// catches up from (delta.go), and the caller's store of the caught-up
// partial replaces it. The returned partial is frozen and shared; callers
// read it only and must not release it to the scan pool
// (releaseSamplePart skips frozen partials).
func (c *scanCache) lookupPartial(k partialKey, epoch uint64) (part *freqstats.Partial, builtAt uint64, hit bool) {
	c.mu.Lock()
	if e, ok := c.partials[k]; ok {
		c.pLRU.MoveToFront(e)
		ent := e.Value.(*partialEntry)
		part, builtAt = ent.part, ent.epoch
	}
	c.mu.Unlock()
	if part != nil && builtAt == epoch {
		c.pHits.Add(1)
		return part, builtAt, true
	}
	c.pMisses.Add(1)
	return part, builtAt, false
}

// acceptsPartial reports whether the cache would keep a partial of the
// given footprint for key k. Scans consult it before freezing a fresh
// partial: when the answer is no (layer disabled, or the partial alone
// over budget) the partial stays mutable and poolable, and k's stale
// entry, which nothing will replace, is dropped.
func (c *scanCache) acceptsPartial(k partialKey, nbytes int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxPartBytes > 0 && nbytes <= c.maxPartBytes {
		return true
	}
	if e, ok := c.partials[k]; ok {
		c.removePartialLocked(e)
	}
	return false
}

// storePartial publishes a frozen sample partial. The partial must be
// frozen (immutable) before the call; from here on it may be shared by
// any number of concurrent merges.
func (c *scanCache) storePartial(k partialKey, epoch uint64, p *freqstats.Partial) {
	nbytes := p.FootprintBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxPartBytes <= 0 || nbytes > c.maxPartBytes {
		return
	}
	if e, ok := c.partials[k]; ok {
		c.removePartialLocked(e)
	}
	c.partials[k] = c.pLRU.PushFront(&partialEntry{key: k, epoch: epoch, part: p, bytes: nbytes})
	c.pBytes += nbytes
	c.evictLocked()
}

func (c *scanCache) removePartialLocked(e *list.Element) {
	ent := e.Value.(*partialEntry)
	c.pLRU.Remove(e)
	delete(c.partials, ent.key)
	c.pBytes -= ent.bytes
}

// evictLocked drops LRU entries until every layer fits its bounds.
// In-flight merges holding a dropped partial keep their reference; the
// entry simply stops being findable.
func (c *scanCache) evictLocked() {
	for c.pBytes > c.maxPartBytes && c.pLRU.Len() > 0 {
		c.removePartialLocked(c.pLRU.Back())
		c.pEvictions.Add(1)
	}
	for c.progLRU.Len() > 0 && c.progLRU.Len() > c.maxProgs {
		oldest := c.progLRU.Back()
		c.progLRU.Remove(oldest)
		delete(c.progs, oldest.Value.(*progEntry).key)
	}
}

// stats snapshots the scan-layer counters.
func (c *scanCache) stats() CacheStats {
	c.mu.Lock()
	pBytes := c.pBytes
	c.mu.Unlock()
	return CacheStats{
		ProgramHits:      c.progHits.Load(),
		ProgramMisses:    c.progMisses.Load(),
		PartialHits:      c.pHits.Load(),
		PartialMisses:    c.pMisses.Load(),
		PartialCatchUps:  c.pDeltas.Load(),
		PartialEvictions: c.pEvictions.Load(),
		PartialBytes:     pBytes,
	}
}

// resultKey identifies a whole-query result: which table object (the id
// survives DROP + re-CREATE under the same name), which canonical query,
// and the exact shard epochs the scan ran at. The estimator set is fixed
// at Open, so it needs no place in the key. Epochs are part of the key, so invalidation is free: any mutation
// bumps an epoch and every later lookup simply misses.
type resultKey struct {
	table  uint64
	query  string
	epochs [numShards]uint64
}

type resultEntry struct {
	key   resultKey
	res   *Result
	bytes int
}

// resultBase is a resultKey without the epochs: all entries sharing a
// base answer the same (table, query), just at different data versions —
// of which only the newest can ever hit again.
type resultBase struct {
	table uint64
	query string
}

func (k resultKey) base() resultBase {
	return resultBase{table: k.table, query: k.query}
}

// resultCache is the executor's opt-in layer-3 cache. Cached *Result
// values are shared between callers and must be treated read-only.
type resultCache struct {
	mu       sync.Mutex
	entries  map[resultKey]*list.Element // of *resultEntry
	latest   map[resultBase]*list.Element
	lru      list.List
	bytes    int
	maxBytes int

	hits, misses, evictions atomic.Uint64
}

func newResultCache(maxBytes int) *resultCache {
	return &resultCache{
		entries:  make(map[resultKey]*list.Element),
		latest:   make(map[resultBase]*list.Element),
		maxBytes: maxBytes,
	}
}

func (c *resultCache) lookup(key resultKey) (*Result, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.Value.(*resultEntry).res, true
}

func (c *resultCache) store(key resultKey, res *Result) {
	nbytes := approxResultBytes(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Replace any entry for the same (table, query) at an older
	// epoch vector: epochs only grow, so once a newer version exists the
	// older one can never hit again — under write churn it would just sit
	// dead in the budget until LRU pressure found it. The replacement is
	// one-directional: a concurrent query that scanned before a write may
	// try to store its (now unreachable) older-epoch result after the
	// fresher one landed, and must not displace it. Epoch vectors of one
	// table are componentwise ordered (scans snapshot under all read
	// locks), so "older" is well-defined.
	if prev, ok := c.latest[key.base()]; ok {
		pe := prev.Value.(*resultEntry).key.epochs
		if pe != key.epochs && epochsDominate(pe, key.epochs) {
			return // incoming result is staler than the cached one
		}
		c.removeLocked(prev)
	}
	if nbytes > c.maxBytes {
		return
	}
	e := c.lru.PushFront(&resultEntry{key: key, res: res, bytes: nbytes})
	c.entries[key] = e
	c.latest[key.base()] = e
	c.bytes += nbytes
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// epochsDominate reports whether every component of a is >= b.
func epochsDominate(a, b [numShards]uint64) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

func (c *resultCache) removeLocked(e *list.Element) {
	ent := e.Value.(*resultEntry)
	c.lru.Remove(e)
	delete(c.entries, ent.key)
	if c.latest[ent.key.base()] == e {
		delete(c.latest, ent.key.base())
	}
	c.bytes -= ent.bytes
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	bytes := c.bytes
	c.mu.Unlock()
	return CacheStats{
		ResultHits:      c.hits.Load(),
		ResultMisses:    c.misses.Load(),
		ResultEvictions: c.evictions.Load(),
		ResultBytes:     bytes,
	}
}

// approxResultBytes estimates the retained size of a cached Result. The
// samples dominate; fixed costs are charged at flat rates. Used only for
// the result cache's byte budget.
func approxResultBytes(res *Result) int {
	const base = 512
	n := base + len(res.Estimates)*160
	for _, w := range res.Warnings {
		n += len(w) + 16
	}
	if res.Sample != nil {
		n += res.Sample.FootprintBytes()
	}
	for _, g := range res.Groups {
		n += base
		if g.Result != nil {
			n += approxResultBytes(g.Result)
		}
	}
	return n
}
