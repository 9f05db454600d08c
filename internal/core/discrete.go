package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
)

// Theorem 4: MinEnergy(G, D) is NP-complete under the Discrete (and
// Incremental) models. This file provides two exact solvers — a
// branch-and-bound over mode assignments for arbitrary execution graphs,
// and a Pareto-frontier dynamic program that is exact and fast on
// series-parallel shapes — plus the polynomial heuristics the experiments
// compare against.

// DiscreteOptions tunes the exact solvers.
type DiscreteOptions struct {
	// MaxNodes bounds branch-and-bound nodes (default 4e6).
	MaxNodes int
	// MaxFrontier bounds the size of each node's Pareto staircase in the
	// SP dynamic program (default 500000). Steps the DP prunes against the
	// deadline and its incumbent never count against it.
	MaxFrontier int
	// Release gives each task an earliest permitted start (residual
	// re-solves). Supported by branch-and-bound and the greedy heuristic;
	// the SP Pareto DP rejects it (series/parallel composition has no
	// notion of per-task absolute time).
	Release []float64
	// Warm seeds the exact solvers from a previous assignment without
	// changing their result: branch-and-bound opens with it as incumbent
	// (when still feasible), and the Pareto DP prunes against the lower of
	// its energy and the greedy heuristic's — both are sound because the
	// previous assignment's energy upper-bounds the optimum whenever it
	// remains feasible.
	Warm *WarmStart
}

func (o DiscreteOptions) maxNodes() int {
	if o.MaxNodes == 0 {
		return 4_000_000
	}
	return o.MaxNodes
}

func (o DiscreteOptions) maxFrontier() int {
	if o.MaxFrontier == 0 {
		return 500_000
	}
	return o.MaxFrontier
}

// ErrSearchLimit is returned when an exact solver exhausts its node or
// frontier budget before proving optimality.
var ErrSearchLimit = errors.New("core: exact search exceeded its budget (instance too large — Theorem 4 in action)")

func discreteKind(m model.Model) error {
	if m.Kind != model.Discrete && m.Kind != model.Incremental {
		return fmt.Errorf("core: need a Discrete or Incremental model, got %s", m.Kind)
	}
	return nil
}

// SolveDiscreteBB computes the exact optimum by depth-first branch-and-bound
// over per-task modes. Tasks are branched in decreasing weight order; modes
// are tried slowest-first; subtrees are pruned when (a) even running every
// unassigned task at top speed misses the deadline, or (b) the energy of the
// assigned prefix plus every unassigned task at the slowest mode already
// meets the incumbent. The greedy heuristic provides the initial incumbent.
func (p *Problem) SolveDiscreteBB(m model.Model, opts DiscreteOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if err := p.CheckFeasibleFrom(m.SMax, opts.Release); err != nil {
		return nil, err
	}
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	n := p.G.N()
	modes := m.Modes
	nm := len(modes)
	top := modes[nm-1]
	pt, err := newPathTimes(p.G, release)
	if err != nil {
		return nil, err
	}

	// Incumbent: the previous assignment when warm data is present and
	// still feasible (its energy upper-bounds the optimum, and it usually
	// sits far closer than the greedy's), otherwise the greedy heuristic
	// (always succeeds when feasible).
	bestEnergy := math.Inf(1)
	bestSpeeds := make([]float64, n)
	if ws := warmModeSpeeds(p, m, opts.Warm, release); ws != nil {
		copy(bestSpeeds, ws)
		bestEnergy = p.speedEnergy(ws)
	} else if greedy, err := p.solveDiscreteGreedy(m, release); err == nil {
		gs, _ := greedy.Speeds()
		copy(bestSpeeds, gs)
		bestEnergy = greedy.Energy
	} else {
		for i := range bestSpeeds {
			bestSpeeds[i] = top
		}
		bestEnergy = p.speedEnergy(bestSpeeds)
	}

	// Branch order: heaviest tasks first (largest energy leverage).
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if p.G.Weight(perm[a]) != p.G.Weight(perm[b]) {
			return p.G.Weight(perm[a]) > p.G.Weight(perm[b])
		}
		return perm[a] < perm[b]
	})

	durations := make([]float64, n)
	for i := 0; i < n; i++ {
		durations[i] = p.G.Weight(i) / top // unassigned: fastest
	}
	speeds := make([]float64, n)
	// Suffix minimum-energy bound: every unassigned task at the slowest mode.
	suffixMin := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffixMin[k] = suffixMin[k+1] + model.TaskEnergy(p.G.Weight(perm[k]), modes[0])
	}

	nodes := 0
	limit := opts.maxNodes()
	var limitHit bool
	const eps = 1e-12

	var dfs func(k int, prefixEnergy float64)
	dfs = func(k int, prefixEnergy float64) {
		if limitHit {
			return
		}
		nodes++
		if nodes > limit {
			limitHit = true
			return
		}
		if k == n {
			if prefixEnergy < bestEnergy-eps {
				bestEnergy = prefixEnergy
				copy(bestSpeeds, speeds)
			}
			return
		}
		t := perm[k]
		w := p.G.Weight(t)
		for j := 0; j < nm; j++ {
			e := prefixEnergy + model.TaskEnergy(w, modes[j])
			if e+suffixMin[k+1] >= bestEnergy-eps {
				break // faster modes only cost more
			}
			durations[t] = w / modes[j]
			if pt.forward(durations, pt.ef) <= p.Deadline*(1+1e-12) {
				speeds[t] = modes[j]
				dfs(k+1, e)
			}
		}
		durations[t] = w / top // restore the optimistic duration
	}
	dfs(0, 0)

	st := Stats{Algorithm: "discrete-bb", Nodes: nodes, Exact: !limitHit, BoundFactor: 1}
	if limitHit {
		// Return the incumbent, flagged as possibly suboptimal.
		st.BoundFactor = math.Inf(1)
	}
	if math.IsInf(bestEnergy, 1) {
		return nil, ErrInfeasible
	}
	sol, err := p.solutionFromSpeedsAt(m, bestSpeeds, release, st)
	if err != nil {
		return nil, err
	}
	if limitHit {
		return sol, ErrSearchLimit
	}
	return sol, nil
}

// speedEnergy is the energy of running each task i at speeds[i].
func (p *Problem) speedEnergy(speeds []float64) float64 {
	e := 0.0
	for i, s := range speeds {
		e += model.TaskEnergy(p.G.Weight(i), s)
	}
	return e
}

// warmModeSpeeds validates a warm assignment for the discrete solvers:
// every previous speed snaps to an admissible mode and the assignment still
// meets the deadline under the release times. Returns the snapped speeds,
// or nil when the warm data is absent, stale, or infeasible.
func warmModeSpeeds(p *Problem, m model.Model, warm *WarmStart, release []float64) []float64 {
	n := p.G.N()
	if warm == nil || len(warm.Speeds) != n {
		return nil
	}
	speeds := make([]float64, n)
	durations := make([]float64, n)
	for i, s := range warm.Speeds {
		snapped := 0.0
		for _, mode := range m.Modes {
			if math.Abs(s-mode) <= 1e-9*math.Max(1, mode) {
				snapped = mode
				break
			}
		}
		if snapped == 0 {
			return nil // previous speed is not on this mode ladder
		}
		speeds[i] = snapped
		durations[i] = p.G.Weight(i) / snapped
	}
	ms, err := p.G.MakespanFrom(durations, release)
	if err != nil || ms > p.Deadline*(1+1e-12) {
		return nil
	}
	return speeds
}

// SolveDiscreteGreedy is the classic slack-reclamation heuristic: start
// every task at the top mode, then repeatedly take the single mode
// downgrade with the largest energy saving that keeps the deadline, until
// no downgrade fits. Polynomial: each downgrade costs O(n+e), so the whole
// loop O(n·m·(n+e)) for m modes.
func (p *Problem) SolveDiscreteGreedy(m model.Model) (*Solution, error) {
	return p.solveDiscreteGreedy(m, nil)
}

// SolveDiscreteGreedyOpts is SolveDiscreteGreedy with residual release
// times (opts.Release); the other exact-solver options are ignored.
func (p *Problem) SolveDiscreteGreedyOpts(m model.Model, opts DiscreteOptions) (*Solution, error) {
	release := opts.Release
	if release != nil && !hasRelease(release) {
		release = nil
	}
	return p.solveDiscreteGreedy(m, release)
}

func (p *Problem) solveDiscreteGreedy(m model.Model, release []float64) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if err := p.CheckFeasibleFrom(m.SMax, release); err != nil {
		return nil, err
	}
	speeds, _, err := p.greedySpeeds(m.Modes, release)
	if err != nil {
		return nil, err
	}
	return p.solutionFromSpeedsAt(m, speeds, release, Stats{Algorithm: "discrete-greedy", Exact: false, BoundFactor: math.Inf(1)})
}

// greedySpeeds runs the greedy loop and returns each task's speed; ok is
// false when even the top modes miss the deadline, and then every task
// stays at the top mode. A downgrade of task i fits when its new finish,
// from its earliest start, stays within its latest finish: the test reads
// the task's total float, so each accepted downgrade costs one forward and
// one backward pass instead of a makespan per candidate. Float and
// makespan round differently, so a finish within a relative 1e-9 of its
// latest finish is settled by a full forward pass, and every decision is
// the one a makespan per candidate would take.
func (p *Problem) greedySpeeds(modes, release []float64) (speeds []float64, ok bool, err error) {
	pt, err := newPathTimes(p.G, release)
	if err != nil {
		return nil, false, err
	}
	n, nm := p.G.N(), len(modes)
	idx := make([]int, n)
	d := make([]float64, n)
	for i := range idx {
		idx[i] = nm - 1
		d[i] = p.G.Weight(i) / modes[nm-1]
	}
	dl := p.Deadline * (1 + 1e-12)
	band := 1e-9 * dl
	ok = pt.forward(d, pt.ef) <= dl
	var probe []float64
	for ok {
		pt.backward(d, dl)
		best, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if idx[i] == 0 {
				continue
			}
			w := p.G.Weight(i)
			gain := model.TaskEnergy(w, modes[idx[i]]) - model.TaskEnergy(w, modes[idx[i]-1])
			if gain <= bestGain {
				continue
			}
			di := w / modes[idx[i]-1]
			finish := pt.start(i, pt.ef) + di
			if finish > pt.lf[i]+band {
				continue
			}
			if finish > pt.lf[i]-band {
				if probe == nil {
					probe = make([]float64, n)
				}
				old := d[i]
				d[i] = di
				ms := pt.forward(d, probe)
				d[i] = old
				if ms > dl {
					continue
				}
			}
			best, bestGain = i, gain
		}
		if best < 0 {
			break
		}
		idx[best]--
		d[best] = p.G.Weight(best) / modes[idx[best]]
		pt.forward(d, pt.ef)
	}
	speeds = make([]float64, n)
	for i, j := range idx {
		speeds[i] = modes[j]
	}
	return speeds, ok, nil
}

// pathTimes runs a DAG's longest-path passes over one topological order,
// computed once, into buffers reused across calls.
type pathTimes struct {
	g       *graph.Graph
	order   []int
	release []float64 // nil: every task may start at 0
	ef, lf  []float64 // earliest and latest finish per task
}

func newPathTimes(g *graph.Graph, release []float64) (*pathTimes, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &pathTimes{g: g, order: order, release: release, ef: make([]float64, g.N()), lf: make([]float64, g.N())}, nil
}

// start is task u's earliest start, given its predecessors' earliest
// finishes in ef.
func (pt *pathTimes) start(u int, ef []float64) float64 {
	s := 0.0
	if pt.release != nil && pt.release[u] > 0 {
		s = pt.release[u]
	}
	for _, q := range pt.g.Pred(u) {
		if ef[q] > s {
			s = ef[q]
		}
	}
	return s
}

// forward fills ef with the earliest finishes under durations d and
// returns the makespan, bit for bit graph.MakespanFrom's.
func (pt *pathTimes) forward(d, ef []float64) float64 {
	ms := 0.0
	for _, u := range pt.order {
		ef[u] = pt.start(u, ef) + d[u]
		if ef[u] > ms {
			ms = ef[u]
		}
	}
	return ms
}

// backward fills lf with the latest finishes under durations d that let
// every task end by dl.
func (pt *pathTimes) backward(d []float64, dl float64) {
	for k := len(pt.order) - 1; k >= 0; k-- {
		u := pt.order[k]
		lf := dl
		for _, s := range pt.g.Succ(u) {
			if v := pt.lf[s] - d[s]; v < lf {
				lf = v
			}
		}
		pt.lf[u] = lf
	}
}

// SolveDiscreteRoundUp is the Proposition 1 construction: solve the
// Continuous relaxation with speeds in [s₁, sₘ], then round every speed up
// to the next admissible mode. Rounding up only shortens tasks, so the
// result stays feasible; the energy is within (1+α/s₁)² of the continuous
// optimum (α = largest gap between consecutive modes), hence within the
// same factor of the discrete optimum.
func (p *Problem) SolveDiscreteRoundUp(m model.Model, opts ContinuousOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	bounded := opts
	bounded.SMin = m.SMin
	cont, err := p.SolveContinuousNumeric(m.SMax, bounded)
	if err != nil {
		return nil, err
	}
	contSpeeds, err := cont.Speeds()
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, len(contSpeeds))
	for i, s := range contSpeeds {
		up, err := m.RoundUp(s)
		if err != nil {
			// Roundoff above the top mode: the top mode is still ≥ the true
			// continuous optimum, so it remains feasible.
			up = m.SMax
		}
		speeds[i] = up
	}
	return p.solutionFromSpeedsAt(m, speeds, opts.Release, Stats{Algorithm: "discrete-roundup", Exact: false, BoundFactor: roundUpBound(m)})
}

// roundUpBound is SolveDiscreteRoundUp's a-priori factor (1+α/s₁)², α the
// largest gap between consecutive modes.
func roundUpBound(m model.Model) float64 {
	a := 1 + m.MaxGap()/m.SMin
	return a * a
}

// --- Exact Pareto dynamic program on series-parallel execution graphs ---

// spEntry is one step of a node's staircase: its nondominated (makespan,
// energy) pairs, sorted by T with E strictly falling. a and b are the
// provenance: the mode index at a leaf, the chosen steps of the left and
// right child's staircases at a composition.
type spEntry struct {
	T, E float64
	a, b int32
}

// spNode is one node of the binary DP tree; n-ary compositions fold left.
type spNode struct {
	task        int // leaf task, or -1
	series      bool
	left, right int32
	// minT and minE bound the subtree from below: its makespan with every
	// task at the top mode, its energy with every task at the slowest.
	minT, minE float64
	// ctxT is the top-mode time the node's series siblings up the tree
	// still add, ctxE the slowest-mode energy of every task outside it.
	ctxT, ctxE float64
	stairs     []spEntry
}

// spTree holds the DP tree of one SolveDiscreteSP call in post-order:
// children before parents, left subtree before right, root last — the
// order the recursive DP visits them in.
type spTree struct {
	g     *graph.Graph
	modes []float64
	nodes []spNode
	heap  []spHead
}

// add appends e's subtree and returns its root index.
func (t *spTree) add(e *graph.SPExpr) int32 {
	if e.Kind == graph.SPTask {
		w := t.g.Weight(e.Task)
		t.nodes = append(t.nodes, spNode{task: e.Task, left: -1, right: -1,
			minT: w / t.modes[len(t.modes)-1], minE: model.TaskEnergy(w, t.modes[0])})
		return int32(len(t.nodes) - 1)
	}
	cur := t.add(e.Children[0])
	for _, c := range e.Children[1:] {
		r := t.add(c)
		l, rn := &t.nodes[cur], &t.nodes[r]
		nd := spNode{task: -1, series: e.Kind == graph.SPSeries, left: cur, right: r,
			minT: math.Max(l.minT, rn.minT), minE: l.minE + rn.minE}
		if nd.series {
			nd.minT = l.minT + rn.minT
		}
		t.nodes = append(t.nodes, nd)
		cur = int32(len(t.nodes) - 1)
	}
	return cur
}

// SolveDiscreteSP computes the exact Discrete/Incremental optimum on a
// series-parallel execution graph by composing Pareto staircases of
// (makespan, energy) pairs: a leaf contributes one step per mode, series
// composition adds coordinates, and parallel composition takes the max of
// makespans and adds energies. Parallel nodes merge their children's
// staircases in one walk; series nodes emit theirs in (T, E) order from a
// heap over the smaller child's steps, without materializing the product.
// Each node drops the steps that cannot extend to an optimal root step:
// those whose T plus the top-mode time of the node's series siblings up
// the tree misses the deadline, and those whose E plus the slowest-mode
// energy of every other task exceeds an incumbent — the lower of the warm
// energy (when still feasible) and the greedy heuristic's. Exponential in
// the worst case (Theorem 4 still applies) but typically far faster than
// branch-and-bound because domination pruning collapses the state space.
func (p *Problem) SolveDiscreteSP(m model.Model, e *graph.SPExpr, opts DiscreteOptions) (*Solution, error) {
	if err := discreteKind(m); err != nil {
		return nil, err
	}
	if opts.Release != nil && hasRelease(opts.Release) {
		return nil, fmt.Errorf("core: the SP Pareto DP does not support release times (route residual components to branch-and-bound)")
	}
	if e.Size() != p.G.N() {
		return nil, fmt.Errorf("core: SP expression covers %d of %d tasks", e.Size(), p.G.N())
	}
	n := p.G.N()
	inc := math.Inf(1)
	if ws := warmModeSpeeds(p, m, opts.Warm, nil); ws != nil {
		inc = p.speedEnergy(ws)
	}
	gs, ok, err := p.greedySpeeds(m.Modes, nil)
	if err != nil {
		return nil, err
	}
	if ok {
		inc = math.Min(inc, p.speedEnergy(gs))
	}
	t := &spTree{g: p.G, modes: m.Modes, nodes: make([]spNode, 0, 2*n-1)}
	root := t.add(e)
	peak, err := t.solve(p.Deadline, inc, opts.maxFrontier())
	if errors.Is(err, ErrInfeasible) && !math.IsInf(inc, 1) {
		// The tree's sums round differently from the graph's makespan, so
		// the incumbent's own assignment can sit a hair past the deadline
		// here: solve again without the energy bound.
		peak, err = t.solve(p.Deadline, math.Inf(1), opts.maxFrontier())
	}
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, n)
	// The root staircase is E-decreasing in T; the optimum is its last step.
	stack := [][2]int32{{root, int32(len(t.nodes[root].stairs) - 1)}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[top[0]]
		st := nd.stairs[top[1]]
		if nd.task >= 0 {
			speeds[nd.task] = m.Modes[st.a]
			continue
		}
		stack = append(stack, [2]int32{nd.left, st.a}, [2]int32{nd.right, st.b})
	}
	return p.solutionFromSpeeds(m, speeds, Stats{
		Algorithm:    "discrete-sp-dp",
		FrontierPeak: peak,
		Exact:        true,
		BoundFactor:  1,
	})
}

// solve builds every node's staircase, children first, against deadline D
// and incumbent energy inc, and returns the largest staircase of a
// composition. A step is kept when its T meets the deadline (within the
// 1e-12 every deadline test allows) and its E falls more than 1e-15 below
// the previous kept step's. The context caps carry a relative 1e-9
// margin, so rounding in their sums never drops a step the unpruned DP
// keeps at the root.
func (t *spTree) solve(D, inc float64, budget int) (int, error) {
	dl := D * (1 + 1e-12)
	tLim, eLim := dl*(1+1e-9), inc*(1+1e-9)
	for k := len(t.nodes) - 1; k >= 0; k-- {
		nd := &t.nodes[k]
		if nd.task >= 0 {
			continue
		}
		l, r := &t.nodes[nd.left], &t.nodes[nd.right]
		l.ctxE, r.ctxE = nd.ctxE+r.minE, nd.ctxE+l.minE
		l.ctxT, r.ctxT = nd.ctxT, nd.ctxT
		if nd.series {
			l.ctxT, r.ctxT = nd.ctxT+r.minT, nd.ctxT+l.minT
		}
	}
	peak := 0
	for k := range t.nodes {
		nd := &t.nodes[k]
		nd.stairs = nd.stairs[:0]
		tCap, eCap := math.Min(dl, tLim-nd.ctxT), eLim-nd.ctxE
		switch {
		case nd.task >= 0:
			t.leaf(nd, tCap, eCap)
		case nd.series:
			t.series(nd, tCap, eCap, budget)
		default:
			t.parallel(nd, tCap, eCap)
		}
		if nd.task < 0 {
			peak = max(peak, len(nd.stairs))
			if len(nd.stairs) > budget {
				return 0, ErrSearchLimit
			}
		}
		if len(nd.stairs) == 0 {
			return 0, ErrInfeasible
		}
	}
	return peak, nil
}

// leaf emits one step per mode, fastest first.
func (t *spTree) leaf(nd *spNode, tCap, eCap float64) {
	w := t.g.Weight(nd.task)
	bestE := math.Inf(1)
	for j := len(t.modes) - 1; j >= 0; j-- {
		T := w / t.modes[j]
		if T > tCap {
			break
		}
		if E := model.TaskEnergy(w, t.modes[j]); E <= eCap && E < bestE-1e-15 {
			nd.stairs = append(nd.stairs, spEntry{T: T, E: E, a: int32(j)})
			bestE = E
		}
	}
}

// parallel merges the children's staircases in one walk: at each candidate
// makespan, the cheapest pair within it is the last step of each side
// whose T fits.
func (t *spTree) parallel(nd *spNode, tCap, eCap float64) {
	L, R := t.nodes[nd.left].stairs, t.nodes[nd.right].stairs
	i, j := -1, -1
	bestE := math.Inf(1)
	for i+1 < len(L) || j+1 < len(R) {
		T := math.Inf(1)
		if i+1 < len(L) {
			T = L[i+1].T
		}
		if j+1 < len(R) && R[j+1].T < T {
			T = R[j+1].T
		}
		if T > tCap {
			return
		}
		if i+1 < len(L) && L[i+1].T == T {
			i++
		}
		if j+1 < len(R) && R[j+1].T == T {
			j++
		}
		if i < 0 || j < 0 {
			continue
		}
		if E := L[i].E + R[j].E; E <= eCap && E < bestE-1e-15 {
			nd.stairs = append(nd.stairs, spEntry{T: T, E: E, a: int32(i), b: int32(j)})
			bestE = E
		}
	}
}

// spHead is a series node's heap item: the next candidate step of one row.
type spHead struct {
	T, E     float64
	row, col int32
}

// less orders heads by (T, E), then by row, so heads of equal cost pop
// in a fixed order, whatever the heap's layout.
func (h spHead) less(o spHead) bool {
	if h.T != o.T {
		return h.T < o.T
	}
	if h.E != o.E {
		return h.E < o.E
	}
	return h.row < o.row
}

// series emits the staircase of the children's Minkowski sum in (T, E)
// order. Each step of the smaller child is a row; a row's sums rise in T
// and fall in E along the larger child's staircase, so each row seeks,
// by binary search, its first sum that can still enter the staircase. It
// stops once the staircase outgrows the budget.
func (t *spTree) series(nd *spNode, tCap, eCap float64, budget int) {
	rows, cols := t.nodes[nd.left].stairs, t.nodes[nd.right].stairs
	swap := len(cols) < len(rows)
	if swap {
		rows, cols = cols, rows
	}
	h := t.heap[:0]
	bestE := math.Inf(1)
	for r := range rows {
		if c := seek(rows[r], cols, 0, bestE, eCap); c < len(cols) && rows[r].T+cols[c].T <= tCap {
			h = append(h, spHead{T: rows[r].T + cols[c].T, E: rows[r].E + cols[c].E, row: int32(r), col: int32(c)})
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftDown(h, k)
	}
	for len(h) > 0 {
		top := h[0]
		if top.E < bestE-1e-15 {
			a, b := top.row, top.col
			if swap {
				a, b = b, a
			}
			nd.stairs = append(nd.stairs, spEntry{T: top.T, E: top.E, a: a, b: b})
			bestE = top.E
			if len(nd.stairs) > budget {
				break
			}
		}
		row := rows[top.row]
		if c := seek(row, cols, int(top.col)+1, bestE, eCap); c < len(cols) && row.T+cols[c].T <= tCap {
			h[0] = spHead{T: row.T + cols[c].T, E: row.E + cols[c].E, row: top.row, col: int32(c)}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	t.heap = h
}

// seek returns the first column c ≥ from whose sum with row can still
// enter a staircase whose last step has energy bestE and whose cap is
// eCap, moved past any later columns whose sums round to the same T (they
// cost no more); len(cols) when there is none.
func seek(row spEntry, cols []spEntry, from int, bestE, eCap float64) int {
	thr := bestE - 1e-15
	lo, hi := from, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if E := row.E + cols[mid].E; E < thr && E <= eCap {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for lo+1 < len(cols) && row.T+cols[lo+1].T == row.T+cols[lo].T {
		lo++
	}
	return lo
}

func siftDown(h []spHead, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
