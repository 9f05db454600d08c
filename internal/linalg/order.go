package linalg

import "sort"

// Fill-reducing orderings for SparseSym. Two candidates are available:
//
//   - Reverse Cuthill–McKee (rcmOrder, sparseldl.go): minimizes the
//     envelope, which is ideal for long thin graphs (chains, pipelines)
//     whose factors are banded.
//
//   - Nested dissection (ndOrder, below): recursively bisects the
//     pattern graph through small vertex separators found on BFS level
//     sets, orders each half first and the separator last, so fill stays
//     confined to the separator borders.
//
// OrderAuto builds both and keeps the cheaper symbolic factor.

// Ordering selects the fill-reducing ordering applied by
// SymBuilder.CompileOpts.
type Ordering int

const (
	// OrderAuto compares the symbolic factor of both orderings and keeps
	// the cheaper one (nested dissection on a tie).
	OrderAuto Ordering = iota
	// OrderRCM forces reverse Cuthill–McKee.
	OrderRCM
	// OrderND forces nested dissection.
	OrderND
)

func (o Ordering) String() string {
	switch o {
	case OrderAuto:
		return "auto"
	case OrderRCM:
		return "rcm"
	case OrderND:
		return "nd"
	}
	return "ordering(?)"
}

const (
	// ndLeafSize is the subset size below which dissection stops and the
	// leaf is ordered by plain breadth-first Cuthill–McKee.
	ndLeafSize = 32
	// ndMinDim is the matrix dimension below which OrderAuto does not
	// bother building the nested-dissection candidate.
	ndMinDim = 64
)

// ndCtx carries the scratch state of one ndOrder run. All arrays are
// indexed by vertex; mark and seen are stamp arrays so subsets and BFS
// sweeps never pay an O(n) clear.
type ndCtx struct {
	adjPtr, adj, deg []int
	mark             []int // mark[v] == stamp of the subset v belongs to
	seen             []int // seen[v] == stamp of the BFS that reached v
	lvl              []int // BFS level of v within its component sweep
	stamp            int
	nbuf             []int
}

// ndOrder computes a nested-dissection ordering of the undirected pattern
// graph given in adjacency form. Returns perm with perm[new] = old.
func ndOrder(n int, adjPtr, adj, deg []int) []int {
	c := &ndCtx{
		adjPtr: adjPtr, adj: adj, deg: deg,
		mark: make([]int, n), seen: make([]int, n), lvl: make([]int, n),
	}
	for i := 0; i < n; i++ {
		c.mark[i] = -1
		c.seen[i] = -1
	}
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	return c.dissect(set, make([]int, 0, n))
}

// dissect appends an ordering of the vertex subset to out: components are
// peeled off one BFS at a time; each connected piece either becomes a CM
// leaf or splits through a level-set separator, halves first, separator
// last (so the separator columns eliminate after both halves and the
// halves become disjoint elimination-tree subtrees).
func (c *ndCtx) dissect(set []int, out []int) []int {
	for len(set) > 0 {
		if len(set) <= ndLeafSize {
			return c.appendCM(set, out)
		}
		c.stamp++
		id := c.stamp
		for _, v := range set {
			c.mark[v] = id
		}
		comp, h := c.levels(set[0], id)
		var rest []int
		if len(comp) < len(set) {
			rest = make([]int, 0, len(set)-len(comp))
			for _, v := range set {
				if c.seen[v] != id {
					rest = append(rest, v)
				}
			}
		}
		if h < 3 || len(comp) <= ndLeafSize {
			out = c.appendCM(comp, out)
		} else {
			a, b, sep := c.split(comp, h)
			out = c.dissect(a, out)
			out = c.dissect(b, out)
			out = append(out, sep...)
		}
		set = rest
	}
	return out
}

// levels runs the double BFS within the subset stamped id: first from
// start to a pseudo-peripheral vertex, then from there assigning levels.
// Returns the component in BFS order (level-sorted) and its eccentricity.
func (c *ndCtx) levels(start, id int) ([]int, int) {
	far := c.bfs(start, id, nil)
	comp := make([]int, 0, 16)
	c.bfs(far, id, &comp)
	h := 0
	for _, v := range comp {
		if c.lvl[v] > h {
			h = c.lvl[v]
		}
	}
	return comp, h
}

// bfs sweeps the component of start within subset stamp id, writing
// levels into c.lvl and (when collect is non-nil) the BFS order into it.
// Every sweep uses a fresh seen stamp; the final sweep's stamp is left
// equal to id so dissect can separate the component from the rest — the
// caller alternates a scout sweep (collect nil) with a collecting sweep,
// and only the collecting sweep's marks must survive.
func (c *ndCtx) bfs(start, id int, collect *[]int) int {
	var order []int
	if collect != nil {
		order = *collect
	} else {
		order = c.nbuf[:0]
	}
	base := len(order)
	sweep := id
	if collect == nil {
		c.stamp++
		sweep = c.stamp
		// A scout sweep must not disturb mark (subset membership), only
		// seen; stamps for seen and mark share the counter, which is fine
		// because they never compare against each other.
	}
	c.seen[start] = sweep
	c.lvl[start] = 0
	order = append(order, start)
	last := start
	for head := base; head < len(order); head++ {
		v := order[head]
		last = v
		for p := c.adjPtr[v]; p < c.adjPtr[v+1]; p++ {
			u := c.adj[p]
			if c.mark[u] == id && c.seen[u] != sweep {
				c.seen[u] = sweep
				c.lvl[u] = c.lvl[v] + 1
				order = append(order, u)
			}
		}
	}
	if collect != nil {
		*collect = order
	} else {
		c.nbuf = order[:0]
	}
	return last
}

// split partitions the level-sorted component around a thin separator
// level near the median vertex. Returns the two halves and the separator
// (all slices of comp, which stays level-sorted).
func (c *ndCtx) split(comp []int, h int) (a, b, sep []int) {
	median := c.lvl[comp[len(comp)/2]]
	lo, hi := median-2, median+2
	if lo < 1 {
		lo = 1
	}
	if hi > h-1 {
		hi = h - 1
	}
	if lo > hi {
		lo = median
		if lo < 1 {
			lo = 1
		}
		if lo > h-1 {
			lo = h - 1
		}
		hi = lo
	}
	counts := make([]int, h+1)
	for _, v := range comp {
		counts[c.lvl[v]]++
	}
	best := lo
	for l := lo + 1; l <= hi; l++ {
		if counts[l] < counts[best] {
			best = l
		}
	}
	i := 0
	for i < len(comp) && c.lvl[comp[i]] < best {
		i++
	}
	j := i
	for j < len(comp) && c.lvl[comp[j]] == best {
		j++
	}
	return comp[:i], comp[j:], comp[i:j]
}

// appendCM orders the (possibly disconnected) leaf subset by plain
// Cuthill–McKee — BFS with neighbors in increasing-degree order — and
// appends it to out.
func (c *ndCtx) appendCM(set []int, out []int) []int {
	c.stamp++
	id := c.stamp
	for _, v := range set {
		c.mark[v] = id
	}
	for _, s := range set {
		if c.seen[s] == id {
			continue
		}
		c.seen[s] = id
		out = append(out, s)
		for head := len(out) - 1; head < len(out); head++ {
			v := out[head]
			c.nbuf = c.nbuf[:0]
			for p := c.adjPtr[v]; p < c.adjPtr[v+1]; p++ {
				if u := c.adj[p]; c.mark[u] == id && c.seen[u] != id {
					c.seen[u] = id
					c.nbuf = append(c.nbuf, u)
				}
			}
			sort.Slice(c.nbuf, func(x, y int) bool { return c.deg[c.nbuf[x]] < c.deg[c.nbuf[y]] })
			out = append(out, c.nbuf...)
		}
	}
	return out
}
