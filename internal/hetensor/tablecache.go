package hetensor

import (
	"container/list"
	"sync"
	"sync/atomic"

	"blindfl/internal/paillier"
	"blindfl/internal/parallel"
)

// Persistent dot-table cache. A Straus window table depends only on the
// ciphertext bases it was built from — one column (or row) of an encrypted
// matrix — yet before this cache every kernel invocation rebuilt its tables
// from scratch, even though the same encrypted feature/weight columns recur
// in every batch of every epoch (the encrypted embedding tables, the
// inference-time weight copies, the fed-top ⟦∇Z⟧ reused by several kernels
// of one backward pass). The cache keys tables by *ciphertext-column
// identity*: every CipherMatrix/PackedMatrix is minted a process-unique ID
// when it is created by encryption or received from the peer, and a table is
// identified by (matrix ID, orientation, group index, live-base set). IDs
// are never reused and accumulator matrices (whose cells mutate) carry ID 0,
// so a cached table can never go stale — refreshed weights arrive as a new
// matrix with a new ID and the old entries age out of the LRU.
//
// Because cached tables amortize across the whole training run rather than
// one kernel call, they are built at a much wider window than the per-call
// tables (up to width 8: ~6 window digits for a 45-bit fixed-point scalar
// instead of 12 at width 4), so a warm hit is not just "no build cost" but
// also a ~1.7× cheaper evaluation per row.
//
// The cache is process-wide and byte-budgeted: entries are evicted LRU-first
// the moment the budget is exceeded. A budget of 0 (the default) disables
// caching entirely; core.Config.TableCacheMB / model.Hyper.TableCacheMB /
// `blindfl-train -tablecache` set it per run. Streamed row-chunk transfers
// compose safely with the cache: individual chunks are single-use and stay
// anonymous (only fully assembled receives are minted an identity), so
// chunked kernels simply use the per-call table tier without churning the
// persistent entries.

// matrixIDs mints process-unique ciphertext-matrix identities. ID 0 is
// reserved for uncacheable matrices (accumulators, row-slice views).
var matrixIDs atomic.Uint64

func nextMatrixID() uint64 { return matrixIDs.Add(1) }

// MintID assigns m a fresh process-unique identity, marking its ciphertexts
// as a stable base set for the dot-table cache. Called by the encryption
// constructors and the protocol receive paths; call it manually only for a
// matrix whose cells will never be replaced afterwards.
func (m *CipherMatrix) MintID() { m.id = nextMatrixID() }

// MintID is the packed-matrix analogue of CipherMatrix.MintID.
func (m *PackedMatrix) MintID() { m.id = nextMatrixID() }

// tableSource names the base-set family a kernel draws from: which matrix,
// and whether base vectors run along its columns or its rows.
type tableSource struct {
	id     uint64
	orient uint8
}

const (
	orientCol uint8 = iota // base vector g = column/group g of the matrix
	orientRow              // base vector g = row g of the matrix
)

// tableKey identifies one cached DotTables build.
type tableKey struct {
	id     uint64
	orient uint8
	crt    bool // built in SecretOps dual-chain mode
	group  int
	live   uint64 // FNV-1a hash of the live base indices
}

// liveHash fingerprints the set of live (non-zero-exponent) base indices.
func liveHash(live []int) uint64 {
	h := uint64(1469598103934665603)
	for _, k := range live {
		h ^= uint64(k)
		h *= 1099511628211
	}
	return h
}

type tableEntry struct {
	key   tableKey
	tabs  *paillier.DotTables
	bytes int64
}

// tableCache is the process-wide LRU. All fields are guarded by mu; the
// critical sections are map/list operations only, never table builds.
var tableCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[tableKey]*list.Element
	lru     list.List // front = most recently used
	hits    int64
	misses  int64
	evicted int64
}

// TableCacheStats reports the cache's effectiveness counters.
type TableCacheStats struct {
	Hits, Misses, Evicted int64
	Entries               int
	Bytes, Budget         int64
}

// SetTableCacheBudget sets the cache's byte budget and returns the previous
// one. Shrinking evicts LRU-first immediately; 0 disables caching and drops
// every entry.
func SetTableCacheBudget(budget int64) int64 {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	prev := tableCache.budget
	if budget < 0 {
		budget = 0
	}
	tableCache.budget = budget
	if tableCache.entries == nil {
		tableCache.entries = make(map[tableKey]*list.Element)
	}
	evictOverLocked()
	return prev
}

// TableCacheBudget returns the current byte budget (0 = disabled).
func TableCacheBudget() int64 {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	return tableCache.budget
}

// TableCacheStatsNow returns a snapshot of the cache counters.
func TableCacheStatsNow() TableCacheStats {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	return TableCacheStats{
		Hits: tableCache.hits, Misses: tableCache.misses, Evicted: tableCache.evicted,
		Entries: tableCache.lru.Len(), Bytes: tableCache.bytes, Budget: tableCache.budget,
	}
}

// ResetTableCache drops every entry and zeroes the counters, keeping the
// budget. Tests use it to isolate cold/warm measurements.
func ResetTableCache() {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	tableCache.entries = make(map[tableKey]*list.Element)
	tableCache.lru.Init()
	tableCache.bytes = 0
	tableCache.hits, tableCache.misses, tableCache.evicted = 0, 0, 0
}

// evictOverLocked drops LRU entries until the cache fits its budget.
func evictOverLocked() {
	for tableCache.bytes > tableCache.budget {
		back := tableCache.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*tableEntry)
		tableCache.lru.Remove(back)
		delete(tableCache.entries, e.key)
		tableCache.bytes -= e.bytes
		tableCache.evicted++
	}
}

// tableCacheGet returns the cached tables for key, bumping recency.
func tableCacheGet(key tableKey) *paillier.DotTables {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	el, ok := tableCache.entries[key]
	if !ok {
		tableCache.misses++
		return nil
	}
	tableCache.hits++
	tableCache.lru.MoveToFront(el)
	return el.Value.(*tableEntry).tabs
}

// tableCachePut inserts freshly built tables, evicting LRU entries over
// budget. Entries bigger than the whole budget are not cached. A concurrent
// build of the same key simply replaces the earlier entry (both are valid).
func tableCachePut(key tableKey, tabs *paillier.DotTables) {
	bytes := tabs.Bytes()
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	if bytes > tableCache.budget {
		return
	}
	if el, ok := tableCache.entries[key]; ok {
		old := el.Value.(*tableEntry)
		tableCache.bytes -= old.bytes
		tableCache.lru.Remove(el)
		delete(tableCache.entries, key)
	}
	e := &tableEntry{key: key, tabs: tabs, bytes: bytes}
	tableCache.entries[key] = tableCache.lru.PushFront(e)
	tableCache.bytes += bytes
	evictOverLocked()
}

// cacheWindow picks the Straus window for persistent tables: the widest
// width (≤ 8) at which the *whole invocation's* working set — all gpr
// columns of the source matrix — fits half the budget, so one kernel call
// can never evict its own inserts and two similarly-shaped matrices (a
// layer's two weight copies, say) can coexist. Reuse across a whole run
// amortizes the build cost, so this is deliberately wider than DotWindow's
// per-call choice — and when the budget cannot even afford the width a
// well-amortized per-call build would use, it returns 0: caching narrower
// tables would make every warm hit evaluate *slower* than the uncached
// tier, the opposite of the knob's contract, so the caller bypasses.
func cacheWindow(live, gpr, maxBits int, pk *paillier.PublicKey, budget int64) uint {
	floor := paillier.DotWindow(maxBits, 8) // the amortized per-call width
	for w := uint(8); w >= floor; w-- {
		if int64(gpr)*pk.DotTablesBytes(live, w) <= budget/2 {
			return w
		}
	}
	return 0
}

// cachedTables resolves the per-group Straus tables for one kernel
// invocation through the cache, building (and inserting) missing groups at
// the cache's window width. It returns nil when the cache cannot serve the
// call — disabled, anonymous source (ID 0), or the invocation's table
// working set would not fit at a width worth caching — in which case the
// caller falls back to the per-call table paths.
func cachedTables(pk *paillier.PublicKey, src tableSource, live []int, gpr, maxBits int,
	base func(k, g int) *paillier.Ciphertext) []*paillier.DotTables {
	if src.id == 0 {
		return nil
	}
	budget := TableCacheBudget()
	if budget <= 0 {
		return nil
	}
	w := cacheWindow(len(live), gpr, maxBits, pk, budget)
	if w == 0 {
		return nil
	}
	lh := liveHash(live)
	crt := paillier.SecretOpsFor(pk) != nil
	tabs := make([]*paillier.DotTables, gpr)
	parallel.For(gpr, func(g int) {
		key := tableKey{id: src.id, orient: src.orient, crt: crt, group: g, live: lh}
		if t := tableCacheGet(key); t != nil {
			tabs[g] = t
			return
		}
		col := make([]*paillier.Ciphertext, len(live))
		for t, k := range live {
			col[t] = base(k, g)
		}
		t := pk.PrecomputeDot(col, w)
		tableCachePut(key, t)
		tabs[g] = t
	})
	return tabs
}
