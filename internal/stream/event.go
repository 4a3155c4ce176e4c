// Package stream is the incremental runtime of the SHATTER reproduction:
// a typed per-slot event model over which trace generation, HVAC control,
// attack injection, and anomaly detection all advance minute-by-minute
// instead of materializing whole multi-day traces. Every streaming path is
// equivalence-locked to its batch counterpart — replaying a house through
// the stream reproduces the batch trace, controller costs, and ADM verdicts
// byte-for-byte — so the batch experiment suite and the fleet service are
// two shells over the same core.
//
// The layer stack:
//
//	Source    → day-blocks (aras.Generator or a recorded Trace); its
//	            per-slot frames are the oracle the block path is locked to
//	Injector  → applies an attack.Plan to the blocks in flight
//	Home      → hvac.Sim stepper + adm.Detector per home
//	Fleet     → N homes over a worker pool, optionally via the MQTT broker
package stream

import (
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// OccupantReading is one occupant's sensed location and activity at a slot.
type OccupantReading struct {
	Zone     home.ZoneID     `json:"z"`
	Activity home.ActivityID `json:"a"`
}

// Slot is one minute of a home's sensor traffic — the frame a deployment
// publishes on its per-home topic each control cycle. It carries the ground
// truth alongside the reported view: the two coincide until an Injector
// falsifies the reported half (sensor spoofing never changes the truth, and
// really-triggered appliances change both).
type Slot struct {
	// Home identifies the emitting home on the fleet bus.
	Home string `json:"home,omitempty"`
	// Day and Index locate the slot (Index is the minute of day).
	Day   int `json:"day"`
	Index int `json:"slot"`
	// OutdoorTempF and OutdoorCO2PPM are the slot's weather.
	OutdoorTempF  float64 `json:"tempF"`
	OutdoorCO2PPM float64 `json:"co2"`
	// True is the ground-truth occupancy; TrueAppliance the real electrical
	// state of each appliance.
	True          []OccupantReading `json:"true"`
	TrueAppliance []bool            `json:"trueAppl"`
	// Reported is what the sensors claim; ReportedAppliance the believed
	// appliance statuses (forged δ^D statuses included under attack).
	Reported          []OccupantReading `json:"rep"`
	ReportedAppliance []bool            `json:"repAppl"`
}

// Action is a controller's per-slot decision event: the airflow demands the
// supervisory controller publishes back to the zone actuators, with the
// slot's metered energy and cost.
type Action struct {
	Home    string        `json:"home,omitempty"`
	Day     int           `json:"day"`
	Index   int           `json:"slot"`
	Demands []hvac.Demand `json:"demands"`
	KWh     float64       `json:"kWh"`
	CostUSD float64       `json:"costUSD"`
}

// ensure sizes the slot's slices for a home with the given occupant and
// appliance counts, reusing backing storage.
func (s *Slot) ensure(occupants, appliances int) {
	s.True = growReadings(s.True, occupants)
	s.Reported = growReadings(s.Reported, occupants)
	s.TrueAppliance = growBools(s.TrueAppliance, appliances)
	s.ReportedAppliance = growBools(s.ReportedAppliance, appliances)
}

// mirrorTruth copies the ground truth into the reported view (the benign
// state an Injector then perturbs).
func (s *Slot) mirrorTruth() {
	copy(s.Reported, s.True)
	copy(s.ReportedAppliance, s.TrueAppliance)
}

// SensorEvents counts the individual sensor measurements the frame carries
// (occupancy readings plus appliance statuses) — the unit the fleet
// throughput metrics report.
func (s *Slot) SensorEvents() int {
	return len(s.Reported) + len(s.ReportedAppliance)
}

func growReadings(b []OccupantReading, n int) []OccupantReading {
	if cap(b) < n {
		return make([]OccupantReading, n)
	}
	return b[:n]
}

func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}
