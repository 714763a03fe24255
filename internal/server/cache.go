package server

import (
	"container/list"
	"errors"
	"sync"
	"time"
)

// Cache is a partitioned LRU of computed results, keyed by strings that
// encode graph identity (name + generation), algorithm, and every parameter
// the result depends on. A repeated query for an unchanged graph is served
// from here without touching the counting kernels.
//
// The capacity is split across partitions selected by the graph-identity
// prefix of the key (everything before the '#' that starts the generation),
// so every entry of one graph lands in one partition. That buys two things:
// a hot graph's eviction pressure can only evict within its own partition —
// it cannot flush every other graph's results the way a single global LRU
// let it — and concurrent hits on different graphs take different partition
// locks, so cache reads scale instead of serializing on one mutex. Tiny
// caches (below 2×minPartitionCapacity) keep a single partition, preserving
// exact global LRU order where partitioning has nothing to buy.
//
// Each partition is an independent LRU with its own cost-weighted evictor
// and TTL accounting. Entries may carry a TTL: expensive exact results are
// stored forever (until evicted or purged), while cheap sampling-based
// estimates can be given a bounded lifetime so they age out instead of
// pinning LRU capacity — lazily on Get, and in bulk via Sweep.
//
// Eviction within a partition is cost-weighted LRU: every entry records how
// long its result took to compute, and when the partition overflows, the
// cheapest-to-recompute entry among the evictScan least-recently-used ones
// is dropped. Under pressure a 2 ms sampled estimate goes before a 100-hour
// exact count, while equal-cost entries still evict in strict LRU order.
type Cache struct {
	parts []*cachePartition
	mask  uint32
	now   func() time.Time // injectable clock for TTL tests, shared by partitions
}

// cachePartition is one independently locked LRU shard of the cache.
type cachePartition struct {
	cache     *Cache // for the shared clock
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	expired   uint64 // TTL collections (lazy Get + Sweep), not evictions
}

type cacheEntry struct {
	key     string
	val     any
	expires time.Time     // zero = never expires
	cost    time.Duration // compute time; higher cost resists eviction
}

// evictScan is how many entries from the LRU tail the evictor considers.
// Small enough that eviction stays O(1)-ish, large enough that a cheap
// sampled result sitting just above the tail is found before an expensive
// exact count at the tail is sacrificed.
const evictScan = 8

// Partition sizing: capacity splits into at most maxCachePartitions
// partitions of at least minPartitionCapacity entries each. Partitioning is
// a deliberate trade: isolation means a single graph can only ever use its
// own partition's share (capacity/N entries), so a one-graph deployment
// with a working set above that share should raise -cache rather than rely
// on the whole global capacity. The 64-entry floor bounds how small that
// share can get, and the ceiling bounds the per-partition metrics surface.
const (
	minPartitionCapacity = 64
	maxCachePartitions   = 16
)

// numCachePartitions picks the partition count for a capacity: a power of
// two in [1, maxCachePartitions] with at least minPartitionCapacity entries
// per partition.
func numCachePartitions(capacity int) int {
	n := 1
	for n < maxCachePartitions && capacity >= 2*minPartitionCapacity*n {
		n <<= 1
	}
	return n
}

// NewCache returns a cache holding at most capacity results, partitioned
// automatically. A capacity <= 0 disables caching: Get always misses and
// Put is a no-op.
func NewCache(capacity int) *Cache {
	return NewCacheParts(capacity, 0)
}

// NewCacheParts returns a cache with an explicit partition count (rounded up
// to a power of two; 0 selects automatic sizing). Capacity is divided evenly
// across partitions, remainder spread over the first ones; the count is
// clamped so no partition ends up with zero capacity — a zero-capacity
// partition would silently never cache its keys.
func NewCacheParts(capacity, parts int) *Cache {
	if parts <= 0 {
		parts = numCachePartitions(capacity)
	}
	n := 1
	for n < parts {
		n <<= 1
	}
	for capacity > 0 && n > capacity {
		n >>= 1
	}
	c := &Cache{
		parts: make([]*cachePartition, n),
		mask:  uint32(n - 1),
		now:   time.Now,
	}
	for i := range c.parts {
		pc := capacity / n
		if i < capacity%n {
			pc++
		}
		if capacity <= 0 {
			pc = capacity // preserve "disabled" across partitions
		}
		c.parts[i] = &cachePartition{
			cache:    c,
			capacity: pc,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
		}
	}
	return c
}

// partitionHash hashes a cache key's graph-identity prefix: everything
// before the '#' that introduces the generation ("count|name#gen|..." →
// "count|name"), FNV-1a like shardmap.Hash, in one pass with no allocation
// — this runs on every cache operation. Keys of one graph always share a
// prefix, so they always share a partition; count and profile keys of the
// same graph may land in different partitions, which is harmless —
// isolation only requires that another graph's pressure stays out.
func partitionHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '#' {
			break
		}
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// partition selects the partition owning key.
func (c *Cache) partition(key string) *cachePartition {
	return c.parts[partitionHash(key)&c.mask]
}

// Partitions returns the partition count.
func (c *Cache) Partitions() int { return len(c.parts) }

// Get returns the cached value for key, marking it most recently used.
// Expired entries are removed lazily and reported as misses.
func (c *Cache) Get(key string) (any, bool) {
	p := c.partition(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.items[key]
	if ok {
		e := el.Value.(*cacheEntry)
		if !e.expires.IsZero() && !c.now().Before(e.expires) {
			p.removeLocked(el)
			p.expired++
			ok = false
		}
	}
	if !ok {
		p.misses++
		return nil, false
	}
	p.hits++
	p.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key with no expiry and zero recompute cost.
func (c *Cache) Put(key string, val any) {
	c.PutCost(key, val, 0, 0)
}

// PutTTL stores val under key with zero recompute cost; a positive ttl makes
// the entry expire that far in the future, ttl <= 0 stores it without expiry.
func (c *Cache) PutTTL(key string, val any, ttl time.Duration) {
	c.PutCost(key, val, ttl, 0)
}

// PutCost stores val under key, recording how long the result took to
// compute so eviction can prefer dropping cheap-to-recompute entries. A
// positive ttl bounds the entry's lifetime; ttl <= 0 stores it without
// expiry.
func (c *Cache) PutCost(key string, val any, ttl, cost time.Duration) {
	p := c.partition(key)
	if p.capacity <= 0 {
		return
	}
	var expires time.Time
	if ttl > 0 {
		expires = c.now().Add(ttl)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.expires, e.cost = val, expires, cost
		p.ll.MoveToFront(el)
		return
	}
	p.items[key] = p.ll.PushFront(&cacheEntry{key: key, val: val, expires: expires, cost: cost})
	for p.ll.Len() > p.capacity {
		p.evictLocked()
	}
}

// evictLocked drops one entry to relieve pressure: the cheapest-to-recompute
// among the evictScan least-recently-used ones, with ties going to the least
// recently used. Already-expired entries are claimed first regardless of
// cost. Callers hold p.mu.
func (p *cachePartition) evictLocked() {
	now := p.cache.now()
	victim := p.ll.Back()
	scanned := 0
	for el := p.ll.Back(); el != nil && scanned < evictScan; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if !e.expires.IsZero() && !now.Before(e.expires) {
			victim = el
			break
		}
		// Strict inequality keeps equal-cost eviction in LRU order.
		if e.cost < victim.Value.(*cacheEntry).cost {
			victim = el
		}
		scanned++
	}
	p.removeLocked(victim)
	p.evictions++
}

// Purge removes every entry whose key matches, returning how many were
// dropped. It is how graph deletion and replacement keep dead generations
// from occupying LRU capacity until natural eviction.
func (c *Cache) Purge(match func(key string) bool) int {
	n := 0
	for _, p := range c.parts {
		p.mu.Lock()
		var next *list.Element
		for el := p.ll.Front(); el != nil; el = next {
			next = el.Next()
			if match(el.Value.(*cacheEntry).key) {
				p.removeLocked(el)
				n++
			}
		}
		p.mu.Unlock()
	}
	return n
}

// Sweep removes every expired entry across all partitions, returning how
// many it collected. The server runs it periodically so TTL'd sampling
// results release capacity on schedule instead of waiting for an unlucky
// Get or eviction scan to find them.
func (c *Cache) Sweep() int {
	n := 0
	for _, p := range c.parts {
		p.mu.Lock()
		now := c.now()
		var next *list.Element
		for el := p.ll.Front(); el != nil; el = next {
			next = el.Next()
			e := el.Value.(*cacheEntry)
			if !e.expires.IsZero() && !now.Before(e.expires) {
				p.removeLocked(el)
				p.expired++
				n++
			}
		}
		p.mu.Unlock()
	}
	return n
}

// removeLocked drops one entry; callers hold p.mu.
func (p *cachePartition) removeLocked(el *list.Element) {
	p.ll.Remove(el)
	delete(p.items, el.Value.(*cacheEntry).key)
}

// Len returns the number of cached results, including entries that have
// expired but not yet been collected.
func (c *Cache) Len() int {
	n := 0
	for _, p := range c.parts {
		p.mu.Lock()
		n += p.ll.Len()
		p.mu.Unlock()
	}
	return n
}

// Counters returns the cumulative hit and miss counts across partitions.
func (c *Cache) Counters() (hits, misses uint64) {
	for _, p := range c.parts {
		p.mu.Lock()
		hits += p.hits
		misses += p.misses
		p.mu.Unlock()
	}
	return hits, misses
}

// Evictions returns how many entries have been evicted under capacity
// pressure (purges and TTL collection are not evictions).
func (c *Cache) Evictions() uint64 {
	var n uint64
	for _, p := range c.parts {
		p.mu.Lock()
		n += p.evictions
		p.mu.Unlock()
	}
	return n
}

// PartitionStats is one partition's point-in-time counters, surfaced per
// partition in /v1/metrics so a hot partition (one hot graph) is visible
// instead of averaged away.
type PartitionStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Expired   uint64
}

// Stats returns per-partition counters, indexed by partition.
func (c *Cache) Stats() []PartitionStats {
	out := make([]PartitionStats, len(c.parts))
	for i, p := range c.parts {
		p.mu.Lock()
		out[i] = PartitionStats{
			Entries:   p.ll.Len(),
			Capacity:  p.capacity,
			Hits:      p.hits,
			Misses:    p.misses,
			Evictions: p.evictions,
			Expired:   p.expired,
		}
		p.mu.Unlock()
	}
	return out
}

// flightGroup collapses concurrent computations of the same key into one:
// the first caller runs fn, later callers block and share its result. This
// keeps a thundering herd of identical cold queries from running the same
// count once per client. The call table is sharded by the same
// graph-identity prefix as the cache partitions, so registering a flight
// for one graph never contends with another graph's flights.
type flightGroup struct {
	shards []flightShard
	mask   uint32
}

type flightShard struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// flightShards is the fixed shard count of a flightGroup; matching
// maxCachePartitions keeps the two structures' contention profiles aligned.
const flightShards = maxCachePartitions

func newFlightGroup() *flightGroup {
	g := &flightGroup{shards: make([]flightShard, flightShards), mask: flightShards - 1}
	for i := range g.shards {
		g.shards[i].calls = make(map[string]*flightCall)
	}
	return g
}

func (g *flightGroup) shard(key string) *flightShard {
	return &g.shards[partitionHash(key)&g.mask]
}

// Do runs fn once per key among concurrent callers. shared reports whether
// the result came from another caller's in-flight computation.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	s := g.shard(key)
	s.mu.Lock()
	if call, ok := s.calls[key]; ok {
		s.mu.Unlock()
		call.wg.Wait()
		return call.val, call.err, true
	}
	call := &flightCall{}
	call.wg.Add(1)
	s.calls[key] = call
	s.mu.Unlock()

	// If fn panics, waiters get an error and the key is released before the
	// panic travels on to the caller's job guard; otherwise every later
	// caller for the key would block forever.
	panicked := true
	defer func() {
		if panicked {
			call.val, call.err = nil, errors.New("internal error: shared computation panicked")
		}
		call.wg.Done()
		s.mu.Lock()
		delete(s.calls, key)
		s.mu.Unlock()
	}()
	call.val, call.err = fn()
	panicked = false
	return call.val, call.err, false
}
