package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
)

// Tolerances of the output oracle: energies must match their reference to
// 1e-6 relative, and schedules may overrun the deadline or the top speed
// by at most 1e-6 relative.
const (
	energyTol = 1e-6
	feasTol   = 1e-6
)

func checkEnergy(got, want float64) error {
	if !(math.Abs(got-want) <= energyTol*math.Abs(want)) {
		return fmt.Errorf("energy %.12g, reference %.12g", got, want)
	}
	return nil
}

// checkSchedule rebuilds the earliest-start schedule of a returned speed
// vector (or Vdd profile set) on g and checks it against the deadline and
// the model's admissible speeds.
func checkSchedule(g *graph.Graph, deadline float64, mdl *model.Model, speeds []float64, profiles [][]service.SegmentJSON) error {
	var s *sched.Schedule
	var err error
	switch {
	case speeds != nil:
		s, err = sched.FromSpeeds(g, speeds)
	case profiles != nil:
		s, err = sched.FromProfiles(g, toProfiles(profiles))
	default:
		return errors.New("response carries neither speeds nor profiles")
	}
	if err != nil {
		return err
	}
	return s.Validate(deadline, mdl, feasTol*math.Max(1, deadline))
}

func toProfiles(in [][]service.SegmentJSON) []sched.Profile {
	out := make([]sched.Profile, len(in))
	for i, segs := range in {
		p := make(sched.Profile, len(segs))
		for k, seg := range segs {
			p[k] = sched.Segment{Speed: seg.Speed, Duration: seg.Duration}
		}
		out[i] = p
	}
	return out
}

// checkSolve checks one solve response for the instance scaled by c.
func checkSolve(resp *service.SolveResponse, in *instance, c float64) error {
	if resp.Degraded {
		return errors.New("degraded answer")
	}
	if err := checkEnergy(resp.Energy, in.ref.Energy*c); err != nil {
		return err
	}
	g, d := in.scaled(c)
	return checkSchedule(g, d, &in.mdl, resp.Speeds, resp.Profiles)
}
