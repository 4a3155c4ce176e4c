package stream

import (
	"errors"

	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/boolcol"
	"github.com/acyd-lab/shatter/internal/home"
)

// Injector applies a precomputed attack.Plan to a home's slot stream in
// flight — the streaming counterpart of attack.View. Planning stays offline
// (the optimiser needs its horizon), but execution is live: each frame's
// reported occupancy is replaced by the plan's falsified readings, really
// triggered appliances are switched on in the truth (they draw power), and
// forged δ^D appliance statuses consistent with the reported activities are
// injected into the believed statuses. Frames beyond the plan's horizon
// pass through truthfully.
type Injector struct {
	house *home.House
	plan  *attack.Plan
}

// ErrNilInjector guards construction.
var ErrNilInjector = errors.New("stream: nil house or plan")

// NewInjector builds the live injector for a home's plan.
func NewInjector(h *home.House, plan *attack.Plan) (*Injector, error) {
	if h == nil || plan == nil {
		return nil, ErrNilInjector
	}
	return &Injector{house: h, plan: plan}, nil
}

// Rewrite falsifies one frame in place. The rewrite reproduces
// attack.View's semantics exactly: Reported matches View.Occupants,
// ReportedAppliance matches View.ApplianceOn, and TrueAppliance matches
// View.ActualApplianceOn, so a rewritten stream drives the plant to the
// same state as the batch attacked simulation.
func (inj *Injector) Rewrite(s *Slot) {
	d, t := s.Day, s.Index
	if d < 0 || d >= len(inj.plan.RepZone) {
		return // beyond the campaign horizon: truth-telling
	}
	for o := range s.Reported {
		s.Reported[o] = OccupantReading{
			Zone:     inj.plan.RepZone[d][o][t],
			Activity: inj.plan.RepAct[d][o][t],
		}
	}
	// Really-triggered appliances are actually on: they draw power and
	// their status sensors read "on" honestly.
	for a := range s.TrueAppliance {
		if inj.plan.Triggered[d][a][t] {
			s.TrueAppliance[a] = true
		}
	}
	// Believed statuses: the true electrical state plus forged statuses
	// consistent with the falsified presences (the activity-appliance
	// relationship makes the story self-consistent).
	for a := range s.ReportedAppliance {
		s.ReportedAppliance[a] = s.TrueAppliance[a] || inj.forged(s, a)
	}
}

// RewriteBlock falsifies one whole day-block in place — the column-wise
// counterpart of Rewrite, producing bit-identical reported and true columns:
// occupancy columns come straight from the plan, triggered appliances are
// OR-ed into the truth eight slots per word, the believed statuses start as
// a copy of the truth, and forged δ^D statuses are set only at falsified
// slots (appliance a reads "on" at slot t iff some falsified presence's
// reported activity uses it in its zone — the same predicate forged
// evaluates appliance-major). Blocks beyond the plan's horizon pass through
// truthfully.
func (inj *Injector) RewriteBlock(b *DayBlock) {
	d := b.Day
	if d < 0 || d >= len(inj.plan.RepZone) {
		return // beyond the campaign horizon: truth-telling
	}
	for o := range b.RepZone {
		copy(b.RepZone[o], inj.plan.RepZone[d][o])
		copy(b.RepAct[o], inj.plan.RepAct[d][o])
	}
	for a := range b.TrueAppliance {
		boolcol.Or(b.TrueAppliance[a], inj.plan.Triggered[d][a])
		copy(b.RepAppliance[a], b.TrueAppliance[a])
	}
	for o := range b.RepZone {
		zones, acts, truth := b.RepZone[o], b.RepAct[o], b.TrueZone[o]
		for t, z := range zones {
			if z == truth[t] {
				continue // only falsified presences carry forged statuses
			}
			for _, ai := range inj.house.AppliancesForActivity(acts[t]) {
				if inj.house.Appliances[ai].Zone == z {
					b.RepAppliance[ai][t] = true
				}
			}
		}
	}
}

// forged reports whether appliance a's status reads "on" only because a
// falsified occupant's reported activity habitually uses it in its zone.
func (inj *Injector) forged(s *Slot, a int) bool {
	appl := inj.house.Appliances[a]
	for o := range s.Reported {
		z := s.Reported[o].Zone
		if z != appl.Zone || z == s.True[o].Zone {
			continue // only falsified presences carry forged statuses
		}
		for _, ai := range inj.house.AppliancesForActivity(s.Reported[o].Activity) {
			if ai == a {
				return true
			}
		}
	}
	return false
}
