// Package sched turns speed assignments into executable schedules: it
// computes start/finish times on the execution graph, validates feasibility
// against a deadline, accounts energy exactly as the paper does
// (s³ per time unit), and cross-checks the analytic times with a
// discrete-event simulation of the mapped machine.
package sched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
)

// Segment is a stretch of execution at constant speed.
type Segment struct {
	Speed    float64
	Duration float64
}

// Profile is the piecewise-constant speed profile of one task. Constant
// speed is a one-segment profile; Vdd-Hopping tasks may hold several.
type Profile []Segment

// ConstantProfile returns the single-segment profile executing cost w at
// speed s.
func ConstantProfile(w, s float64) Profile {
	return Profile{{Speed: s, Duration: model.Duration(w, s)}}
}

// Work returns the total cost executed by the profile: Σ sᵢ·dᵢ.
func (p Profile) Work() float64 {
	w := 0.0
	for _, seg := range p {
		w += seg.Speed * seg.Duration
	}
	return w
}

// Duration returns the total execution time Σ dᵢ.
func (p Profile) Duration() float64 {
	d := 0.0
	for _, seg := range p {
		d += seg.Duration
	}
	return d
}

// Energy returns the energy Σ sᵢ³·dᵢ, the per-interval accounting the
// Vdd-Hopping model prescribes.
func (p Profile) Energy() float64 {
	e := 0.0
	for _, seg := range p {
		e += model.Power(seg.Speed) * seg.Duration
	}
	return e
}

// MaxSpeed returns the fastest speed used by the profile.
func (p Profile) MaxSpeed() float64 {
	m := 0.0
	for _, seg := range p {
		if seg.Speed > m {
			m = seg.Speed
		}
	}
	return m
}

// DistinctSpeeds returns the number of distinct speeds with positive
// duration (within tol).
func (p Profile) DistinctSpeeds(tol float64) int {
	var speeds []float64
	for _, seg := range p {
		if seg.Duration <= tol {
			continue
		}
		found := false
		for _, s := range speeds {
			if math.Abs(s-seg.Speed) <= tol*math.Max(1, s) {
				found = true
				break
			}
		}
		if !found {
			speeds = append(speeds, seg.Speed)
		}
	}
	return len(speeds)
}

// Schedule is a fully timed execution of a task graph.
type Schedule struct {
	G        *graph.Graph
	Profiles []Profile
	Start    []float64
	Finish   []float64
	Makespan float64
	Energy   float64
}

// FromSpeeds builds the earliest-start schedule for constant per-task
// speeds on the execution graph g. Speeds must be positive.
func FromSpeeds(g *graph.Graph, speeds []float64) (*Schedule, error) {
	return FromSpeedsAt(g, speeds, nil)
}

// FromSpeedsAt is FromSpeeds with per-task release times: no task starts
// before its release (residual schedules of a partially executed graph).
func FromSpeedsAt(g *graph.Graph, speeds, release []float64) (*Schedule, error) {
	if len(speeds) != g.N() {
		return nil, fmt.Errorf("sched: %d speeds for %d tasks", len(speeds), g.N())
	}
	profiles := make([]Profile, g.N())
	for i, s := range speeds {
		if !(s > 0) {
			return nil, fmt.Errorf("sched: task %d has non-positive speed %v", i, s)
		}
		profiles[i] = ConstantProfile(g.Weight(i), s)
	}
	return FromProfilesAt(g, profiles, release)
}

// FromProfiles builds the earliest-start schedule for per-task speed
// profiles. Each profile must complete its task's full cost (within a
// relative 1e-6).
func FromProfiles(g *graph.Graph, profiles []Profile) (*Schedule, error) {
	return FromProfilesAt(g, profiles, nil)
}

// FromProfilesAt is FromProfiles with per-task release times (earliest
// permitted starts); nil means zero for every task.
func FromProfilesAt(g *graph.Graph, profiles []Profile, release []float64) (*Schedule, error) {
	if len(profiles) != g.N() {
		return nil, fmt.Errorf("sched: %d profiles for %d tasks", len(profiles), g.N())
	}
	if release != nil && len(release) != g.N() {
		return nil, fmt.Errorf("sched: %d release times for %d tasks", len(release), g.N())
	}
	durations := make([]float64, g.N())
	energy := 0.0
	for i, p := range profiles {
		w := g.Weight(i)
		if math.Abs(p.Work()-w) > 1e-6*math.Max(1, w) {
			return nil, fmt.Errorf("sched: task %d profile executes %.9g of cost %.9g", i, p.Work(), w)
		}
		durations[i] = p.Duration()
		energy += p.Energy()
	}
	// One forward pass in topological order. Each start is the latest of
	// its release and its predecessors' finishes, taken as they are:
	// recovering it as finish − duration would round, and on times near
	// 1e7 land a few ulps before a predecessor's finish.
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	start := make([]float64, g.N())
	finish := make([]float64, g.N())
	makespan := 0.0
	for _, v := range order {
		at := 0.0
		if release != nil && release[v] > 0 {
			at = release[v]
		}
		for _, u := range g.Pred(v) {
			if finish[u] > at {
				at = finish[u]
			}
		}
		start[v] = at
		finish[v] = at + durations[v]
		if finish[v] > makespan {
			makespan = finish[v]
		}
	}
	return &Schedule{
		G:        g,
		Profiles: profiles,
		Start:    start,
		Finish:   finish,
		Makespan: makespan,
		Energy:   energy,
	}, nil
}

// Errors returned by Validate.
var (
	ErrDeadlineViolated   = errors.New("sched: deadline violated")
	ErrPrecedenceViolated = errors.New("sched: precedence violated")
)

// Validate re-checks the schedule independently of how it was built: every
// precedence edge respected, every task finished by the deadline, every
// profile speed admissible under the model (when m is non-nil).
func (s *Schedule) Validate(deadline float64, m *model.Model, tol float64) error {
	for _, e := range s.G.Edges() {
		if s.Finish[e[0]] > s.Start[e[1]]+tol {
			return fmt.Errorf("%w: edge (%d,%d): finish %.9g > start %.9g",
				ErrPrecedenceViolated, e[0], e[1], s.Finish[e[0]], s.Start[e[1]])
		}
	}
	for i, f := range s.Finish {
		if f > deadline+tol {
			return fmt.Errorf("%w: task %d finishes at %.9g > %.9g", ErrDeadlineViolated, i, f, deadline)
		}
	}
	if m != nil {
		for i, p := range s.Profiles {
			switch m.Kind {
			case model.Continuous:
				for _, seg := range p {
					if seg.Duration > tol && (seg.Speed <= 0 || seg.Speed > m.SMax*(1+tol)) {
						return fmt.Errorf("sched: task %d uses speed %.9g outside (0, %.9g]", i, seg.Speed, m.SMax)
					}
				}
			case model.VddHopping:
				for _, seg := range p {
					if seg.Duration > tol && !m.Admissible(seg.Speed, tol) {
						return fmt.Errorf("sched: task %d uses non-mode speed %.9g", i, seg.Speed)
					}
				}
			default: // Discrete, Incremental: single constant admissible speed
				if p.DistinctSpeeds(tol) > 1 {
					return fmt.Errorf("sched: task %d changes speed under %s", i, m.Kind)
				}
				for _, seg := range p {
					if seg.Duration > tol && !m.Admissible(seg.Speed, tol) {
						return fmt.Errorf("sched: task %d uses non-mode speed %.9g", i, seg.Speed)
					}
				}
			}
		}
	}
	return nil
}

// Speeds returns the constant speed of each task, or an error if some task
// uses more than one speed (Vdd profiles).
func (s *Schedule) Speeds() ([]float64, error) {
	out := make([]float64, len(s.Profiles))
	for i, p := range s.Profiles {
		if p.DistinctSpeeds(1e-12) > 1 {
			return nil, fmt.Errorf("sched: task %d has a multi-speed profile", i)
		}
		if len(p) == 0 {
			return nil, fmt.Errorf("sched: task %d has an empty profile", i)
		}
		out[i] = p[0].Speed
	}
	return out, nil
}
