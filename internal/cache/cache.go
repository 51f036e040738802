// Package cache models the Alliant FX/8 cluster's 4-way interleaved
// shared data cache. The cache is a bandwidth resource shared by the
// cluster's eight CEs: its four banks deliver at most Ways words per
// cycle in aggregate, so vector-streaming CEs contend for it — the
// cluster-level half of what the paper's Section-7 methodology
// measures as contention overhead (the estimator cannot separate
// cluster-cache queueing from global memory queueing, and neither do
// the published numbers).
//
// Miss handling (refill from cluster memory) occupies the banks too.
// Misses are charged analytically from a workload-supplied hit ratio,
// with a deterministic fractional-miss accumulator so runs are exactly
// reproducible.
package cache

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Cache is one cluster's shared data cache.
type Cache struct {
	cost arch.CostModel
	bus  *sim.CalendarStore // the interleaved bank array, one entry

	hits      uint64
	misses    uint64
	missCarry float64
	stall     sim.Duration
	queued    sim.Duration
}

// Ways is the interleave factor of the FX/8 cache (4-way).
const Ways = 4

// New creates a cache using the given cost model.
func New(cost arch.CostModel) *Cache {
	return &Cache{cost: cost, bus: sim.NewCalendarStore(1)}
}

// Occupancy returns how long the bank array is busy serving a request
// of the given word count with the given expected hit ratio, and the
// number of line misses charged (deterministic carry).
func (c *Cache) occupancy(words int, hitRatio float64) (sim.Duration, uint64) {
	if words < 1 {
		words = 1
	}
	if hitRatio < 0 {
		hitRatio = 0
	}
	if hitRatio > 1 {
		hitRatio = 1
	}
	expectedMisses := float64(words)*(1-hitRatio)/float64(c.cost.CacheLineWords) + c.missCarry
	misses := uint64(expectedMisses)
	c.missCarry = expectedMisses - float64(misses)

	hitWords := uint64(words) - misses*uint64(c.cost.CacheLineWords)
	if misses*uint64(c.cost.CacheLineWords) > uint64(words) {
		hitWords = 0
	}
	c.hits += hitWords
	c.misses += misses

	// Hits stream at Ways words per cycle; each miss stalls the banks
	// for the cluster-memory refill.
	occ := sim.Duration((int64(hitWords)*c.cost.CacheHitCycles+int64(Ways)-1)/int64(Ways) +
		int64(misses)*(c.cost.CacheMissCycles+int64(c.cost.CacheLineWords)*c.cost.CacheHitCycles))
	return occ, misses
}

// Access performs a stride-1 reference of the given word count at time
// now with the given expected hit ratio. It returns the time the data
// is available (the caller stalls until then) and the queueing delay
// suffered behind other CEs' requests.
func (c *Cache) Access(now sim.Time, words int, hitRatio float64) (done sim.Time, queued sim.Duration) {
	occ, _ := c.occupancy(words, hitRatio)
	start, end := c.bus.Reserve(0, now, occ)
	queued = start - now
	done = end + sim.Duration(c.cost.CacheHitCycles) // pipeline drain
	c.stall += done - now
	c.queued += queued
	return done, queued
}

// Hits returns the number of words served from the cache.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of line misses.
func (c *Cache) Misses() uint64 { return c.misses }

// StallTotal returns the total stall charged to CEs.
func (c *Cache) StallTotal() sim.Duration { return c.stall }

// QueuedTotal returns the total time CEs spent queued behind each
// other at the cache banks — the cluster-level contention.
func (c *Cache) QueuedTotal() sim.Duration { return c.queued }

// Utilization returns the bank array's busy fraction at time now.
func (c *Cache) Utilization(now sim.Time) float64 { return c.bus.Utilization(0, now) }

// MissRatio returns misses-per-word observed so far.
func (c *Cache) MissRatio() float64 {
	total := c.hits + c.misses*uint64(c.cost.CacheLineWords)
	if total == 0 {
		return 0
	}
	return float64(c.misses*uint64(c.cost.CacheLineWords)) / float64(total)
}
