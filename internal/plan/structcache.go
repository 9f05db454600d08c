package plan

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lru"
)

// StructureCache is the planner's half of the structure-keyed amortization
// layer: a bounded LRU from a component graph's structural fingerprint to
// its core.Shape — the recognized Class, the series-parallel
// expression (pure task-ID structure, shared as-is), and the transitive
// reduction (whose weights are stale by construction, so every hit
// re-clothes it in the requesting graph's current weights via
// CloneWithWeights). It also owns the core.KernelCache that amortizes the
// continuous solver's symbolic compilation, so one cache object wired
// through plan.Options covers both the classification and the
// ordering+symbolic work. Classification is dominated by the transitive
// reduction's reachability closure (O(n·m/64) word operations, n²/8
// bytes); the SP recognizer after it is linear. Each half holds at most
// its capacity.
type StructureCache struct {
	lru     *lru.Cache[[32]byte, core.Shape]
	kernels *core.KernelCache

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewStructureCache returns a cache holding up to cap structure entries
// (cap < 1 is clamped to 1), with a kernel cache of the same capacity
// beneath it.
func NewStructureCache(cap int) *StructureCache {
	cap = max(cap, 1)
	return &StructureCache{
		lru:     lru.New[[32]byte, core.Shape](cap),
		kernels: core.NewKernelCache(cap),
	}
}

// Kernels returns the continuous-kernel cache owned by this structure
// cache; routers hand it to core.SolveContinuousNumeric through
// ContinuousOptions.Kernels.
func (sc *StructureCache) Kernels() *core.KernelCache { return sc.kernels }

// classify returns g's core.Shape, consulting the cache first. On a hit
// core.Classify is skipped entirely, transitive reduction included, and
// the lookup costs the fingerprint (a sort and a hash of the edge list);
// the cached reduction (whose weights are stale) is cloned with g's
// current weights because downstream solvers read weights off that
// graph. On a miss the classification runs and is inserted (a
// concurrent insert of the same key wins and the duplicate is dropped).
func (sc *StructureCache) classify(g *graph.Graph) core.Shape {
	key := g.StructuralFingerprint()
	if sh, ok := sc.lru.Get(key); ok {
		sc.hits.Add(1)
		if sh.Reduced != nil {
			sh.Reduced = sh.Reduced.CloneWithWeights(g.Weights())
		}
		return sh
	}
	sc.misses.Add(1)
	sh := core.Classify(g)
	sc.lru.LoadOrAdd(key, sh)
	return sh
}

// Hits returns the classification-lookup hit count.
func (sc *StructureCache) Hits() uint64 { return sc.hits.Load() }

// Misses returns the classification-lookup miss count.
func (sc *StructureCache) Misses() uint64 { return sc.misses.Load() }

// Len returns the number of cached structure entries.
func (sc *StructureCache) Len() int { return sc.lru.Len() }
