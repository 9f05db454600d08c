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
// bytes); the SP recognizer after it is linear.
//
// Entries can be pinned (reference-counted) by long-lived owners —
// reclaim sessions pin the structures their replans revisit — and pinned
// entries are never evicted, so a session's replan stays structure-hit
// for its whole lifetime even under cache pressure from unrelated
// traffic. Pins cover classification entries only, not compiled kernels.
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

// Pin marks the structure key as in use: pinned keys survive eviction.
// Pins are counted, so independent owners pin and unpin symmetrically.
// Pinning a key with no cache entry yet is allowed — the pin applies when
// the entry appears.
func (sc *StructureCache) Pin(key [32]byte) { sc.lru.Pin(key) }

// Unpin releases one Pin reference on key.
func (sc *StructureCache) Unpin(key [32]byte) { sc.lru.Unpin(key) }

// PinProblem pins the structure key of every weakly-connected component
// of p and returns the pinned keys (for symmetric Unpin). Reclaim
// sessions call this per residual problem so each replan's structures
// stay resident for the session's lifetime.
func (sc *StructureCache) PinProblem(p *core.Problem) [][32]byte {
	comps, err := p.SplitComponents()
	if err != nil {
		return nil
	}
	keys := make([][32]byte, 0, len(comps))
	for _, c := range comps {
		k := c.Prob.G.StructuralFingerprint()
		sc.Pin(k)
		keys = append(keys, k)
	}
	return keys
}

// Hits returns the classification-lookup hit count.
func (sc *StructureCache) Hits() uint64 { return sc.hits.Load() }

// Misses returns the classification-lookup miss count.
func (sc *StructureCache) Misses() uint64 { return sc.misses.Load() }

// Len returns the number of cached structure entries.
func (sc *StructureCache) Len() int { return sc.lru.Len() }

// Pinned returns the number of distinct structure keys currently pinned.
// Leak detectors (the chaos suite) assert it returns to zero once every
// session is closed — a nonzero residue means a session leaked its pins.
func (sc *StructureCache) Pinned() int { return sc.lru.Pinned() }
