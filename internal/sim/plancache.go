package sim

import (
	"container/list"
	"errors"
	"sync"

	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// PlanCache is an LRU cache of circuit→SQL translations, shared across
// SQL-backend runs (and, in the simulation service, across concurrent
// requests). It has two hit tiers:
//
//   - exact: the same circuit (same gates, parameters, initial state,
//     options) was translated before — the cached *Translation is
//     returned as-is, skipping translation entirely. The exact index
//     is keyed by the full canonical input encoding
//     (core.ExactFingerprint), not a hash, so a hit can never alias
//     two different circuits;
//   - structural: a circuit with the same SQL text shape but different
//     parameter values (a parameter sweep) was translated before — the
//     cached SQL is reused and only the numeric gate/initial-state rows
//     are recomputed (core.Rebind, which verifies the structure, so the
//     hash-keyed structural index degrades to a miss on collision).
//
// The cache is sharded planCacheShards ways by the low bits of the
// structural key: a storm of concurrent requests (the service's
// many-tenant case) contends on per-shard locks instead of one global
// mutex. Each shard runs its own LRU over its slice of the capacity;
// both indexes of an entry live in its shard (an exact key always
// carries the entry's structural key, which routes to the same shard).
//
// Cached translations are shared read-only; callers must not mutate
// them. All methods are safe for concurrent use.
type PlanCache struct {
	shards [planCacheShards]planShard
}

// planCacheShards is the lock-sharding fanout. Power of two so the
// shard index is a mask of the structural key's mixed low bits.
const planCacheShards = 8

// planShard is one independently locked slice of the cache.
type planShard struct {
	mu         sync.Mutex
	capacity   int
	lru        *list.List // of *planEntry, front = most recent
	exact      map[string]*list.Element
	structural map[uint64]*list.Element

	hits           uint64 // exact-tier hits
	structuralHits uint64
	misses         uint64
}

type planEntry struct {
	exactKey  string
	structKey uint64
	tr        *core.Translation
}

// DefaultPlanCacheSize is the entry capacity used when NewPlanCache is
// called with a non-positive size.
const DefaultPlanCacheSize = 128

// NewPlanCache returns a cache holding at most about capacity
// translations (<= 0 uses DefaultPlanCacheSize). Capacity is split
// evenly across the shards, rounded up to at least one entry per
// shard, so the effective bound is capacity rounded up to a multiple
// of planCacheShards.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	per := (capacity + planCacheShards - 1) / planCacheShards
	if per < 1 {
		per = 1
	}
	pc := &PlanCache{}
	for i := range pc.shards {
		pc.shards[i] = planShard{
			capacity:   per,
			lru:        list.New(),
			exact:      map[string]*list.Element{},
			structural: map[uint64]*list.Element{},
		}
	}
	return pc
}

// shardFor routes a structural key to its shard.
func (pc *PlanCache) shardFor(structKey uint64) *planShard {
	return &pc.shards[structKey%planCacheShards]
}

// PlanCacheStats is a snapshot of cache counters.
type PlanCacheStats struct {
	Hits           uint64 `json:"hits"`            // exact-tier hits
	StructuralHits uint64 `json:"structural_hits"` // rebind-tier hits
	Misses         uint64 `json:"misses"`
	Entries        int    `json:"entries"`
}

// Kernels returns the cache of compiled gate-stage kernel programs the
// translations of this cache run with: the engine's process-wide
// sqlengine.ProcessKernelCache, which every SQL backend shares whether
// or not it has a PlanCache.
func (pc *PlanCache) Kernels() *sqlengine.KernelCache {
	return sqlengine.ProcessKernelCache()
}

// Stats returns the counters aggregated across every shard.
func (pc *PlanCache) Stats() PlanCacheStats {
	var out PlanCacheStats
	for i := range pc.shards {
		s := pc.shards[i].stats()
		out.Hits += s.Hits
		out.StructuralHits += s.StructuralHits
		out.Misses += s.Misses
		out.Entries += s.Entries
	}
	return out
}

// ShardStats returns each shard's own counters, in shard order — the
// per-shard hit/miss visibility behind the service's /metrics.
func (pc *PlanCache) ShardStats() []PlanCacheStats {
	out := make([]PlanCacheStats, planCacheShards)
	for i := range pc.shards {
		out[i] = pc.shards[i].stats()
	}
	return out
}

func (s *planShard) stats() PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PlanCacheStats{
		Hits:           s.hits,
		StructuralHits: s.structuralHits,
		Misses:         s.misses,
		Entries:        s.lru.Len(),
	}
}

// Plan-cache outcome tiers reported by TranslationTier (and recorded
// on job translate spans).
const (
	PlanTierExactHit         = "exact_hit"
	PlanTierStructuralRebind = "structural_rebind"
	PlanTierMiss             = "miss"
)

// Translation returns the SQL program for the circuit, from cache when
// possible. Misses (and structural hits, whose rebound plan is a new
// exact entry) populate the cache.
func (pc *PlanCache) Translation(c *quantum.Circuit, initial *quantum.State, opts core.Options) (*core.Translation, error) {
	tr, _, err := pc.TranslationTier(c, initial, opts)
	return tr, err
}

// TranslationTier is Translation plus which cache tier served the
// request (PlanTierExactHit, PlanTierStructuralRebind, PlanTierMiss) —
// per-request attribution that a Stats() delta cannot give under
// concurrency.
func (pc *PlanCache) TranslationTier(c *quantum.Circuit, initial *quantum.State, opts core.Options) (*core.Translation, string, error) {
	exactKey := core.ExactFingerprint(c, initial, opts)
	structKey := core.StructuralKey(c, opts)
	sh := pc.shardFor(structKey)

	sh.mu.Lock()
	if el, ok := sh.exact[exactKey]; ok {
		sh.hits++
		sh.lru.MoveToFront(el)
		tr := el.Value.(*planEntry).tr
		sh.mu.Unlock()
		return tr, PlanTierExactHit, nil
	}
	var structural *core.Translation
	if el, ok := sh.structural[structKey]; ok {
		structural = el.Value.(*planEntry).tr
	}
	sh.mu.Unlock()

	// Translation work happens outside the lock: concurrent misses may
	// duplicate work but never block each other on the CPU-heavy part.
	if structural != nil {
		tr, err := structural.Rebind(c, initial, opts)
		if err == nil {
			sh.record(&sh.structuralHits, exactKey, structKey, tr)
			return tr, PlanTierStructuralRebind, nil
		}
		if !errors.Is(err, core.ErrPlanStructureMismatch) {
			return nil, "", err
		}
		// A false structural match (hash collision): fall through.
	}
	tr, err := core.Translate(c, initial, opts)
	if err != nil {
		return nil, "", err
	}
	sh.record(&sh.misses, exactKey, structKey, tr)
	return tr, PlanTierMiss, nil
}

// record files a freshly produced translation under both keys, bumping
// the given counter and evicting the shard's least-recently-used entry
// beyond its capacity.
func (s *planShard) record(counter *uint64, exactKey string, structKey uint64, tr *core.Translation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*counter++
	if el, ok := s.exact[exactKey]; ok {
		// Raced with another miss for the same circuit; keep the
		// incumbent.
		s.lru.MoveToFront(el)
		return
	}
	entry := &planEntry{exactKey: exactKey, structKey: structKey, tr: tr}
	el := s.lru.PushFront(entry)
	s.exact[exactKey] = el
	// The structural index keeps the most recent representative of the
	// family; older ones stay reachable via their exact keys.
	s.structural[structKey] = el
	for s.lru.Len() > s.capacity {
		old := s.lru.Back()
		s.lru.Remove(old)
		oe := old.Value.(*planEntry)
		delete(s.exact, oe.exactKey)
		if cur, ok := s.structural[oe.structKey]; ok && cur == old {
			delete(s.structural, oe.structKey)
		}
	}
}
