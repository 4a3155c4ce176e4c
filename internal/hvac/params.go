// Package hvac implements the demand-controlled HVAC (DCHVAC) substrate of
// the SHATTER paper: the ventilation and temperature airflow constraints
// (Eqs 1-2), mixed-air energy accounting (Eq 3), time-of-use cost with
// battery storage (Eq 4), and the two controllers the paper compares in
// Fig 3 — the ASHRAE-style baseline and the activity-aware SHATTER
// controller.
//
// Unit conventions (DESIGN.md §3): airflow CFM, temperature °F, CO2 ppm,
// power W, energy kWh, 1-minute slots.
package hvac

import (
	"errors"
	"fmt"
	"math"
)

// SensibleHeatFactor is the paper's 0.3167 W/(CFM·°F) coefficient relating
// airflow, temperature difference, and sensible heat (Eq 2; equivalently
// 1.08 BTU/(h·CFM·°F)).
const SensibleHeatFactor = 0.3167

// SlotMinutes is the control sampling time Δt in minutes.
const SlotMinutes = 1.0

// Params holds the plant and comfort parameters shared by all controllers.
type Params struct {
	// CO2SetpointPPM is the per-zone CO2 comfort bound (P^CS).
	CO2SetpointPPM float64
	// ZoneSetpointF is the zone temperature setpoint (P^TS).
	ZoneSetpointF float64
	// SupplyAirTempF is the conditioned supply air temperature (P^TSP).
	SupplyAirTempF float64
	// EnvelopeUAWPerF2 is the envelope conductance per square foot of zone
	// area, in W/(°F·ft²): heat leaking in from outdoors.
	EnvelopeUAWPerF2 float64
	// FanWPerCFM is the supply/return fan power per CFM moved.
	FanWPerCFM float64
	// BaseLoadW is the always-on miscellaneous household load
	// (refrigeration, routers) charged to every slot.
	BaseLoadW float64
	// MaxZoneCFM caps a single zone's airflow (duct limit).
	MaxZoneCFM float64
}

// DefaultParams returns the parameterisation used throughout the
// reproduction's experiments.
func DefaultParams() Params {
	return Params{
		CO2SetpointPPM:   800,
		ZoneSetpointF:    72,
		SupplyAirTempF:   55,
		EnvelopeUAWPerF2: 0.10,
		FanWPerCFM:       0.35,
		BaseLoadW:        90,
		MaxZoneCFM:       900,
	}
}

// Validate reports configuration errors a caller should not ignore. Every
// field must be finite: a NaN passes each ordered comparison below (all
// compare false) and would otherwise run as a silent NaN bill.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CO2SetpointPPM", p.CO2SetpointPPM},
		{"ZoneSetpointF", p.ZoneSetpointF},
		{"SupplyAirTempF", p.SupplyAirTempF},
		{"EnvelopeUAWPerF2", p.EnvelopeUAWPerF2},
		{"FanWPerCFM", p.FanWPerCFM},
		{"BaseLoadW", p.BaseLoadW},
		{"MaxZoneCFM", p.MaxZoneCFM},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("hvac: %s is %v, want a finite value", f.name, f.v)
		}
	}
	if p.SupplyAirTempF >= p.ZoneSetpointF {
		return errors.New("hvac: supply air temperature must be below the zone setpoint")
	}
	if p.CO2SetpointPPM <= 450 {
		return errors.New("hvac: CO2 setpoint must exceed typical outdoor levels")
	}
	if p.MaxZoneCFM <= 0 {
		return errors.New("hvac: MaxZoneCFM must be positive")
	}
	return nil
}

// Pricing models the two-tier PG&E-style time-of-use tariff with a home
// battery that charges off-peak and serves the first BatteryKWh of each
// day's peak-window consumption at the off-peak rate (Eq 4).
type Pricing struct {
	// OffPeakUSDPerKWh and PeakUSDPerKWh are the tariff rates.
	OffPeakUSDPerKWh float64
	PeakUSDPerKWh    float64
	// PeakStartSlot and PeakEndSlot bound the daily peak window
	// [start, end) in minutes after midnight.
	PeakStartSlot int
	PeakEndSlot   int
	// BatteryKWh is P^BS, the storage charged off-peak each day.
	BatteryKWh float64
}

// DefaultPricing returns a summer PG&E-like residential TOU plan:
// 4-9 PM peak.
func DefaultPricing() Pricing {
	return Pricing{
		OffPeakUSDPerKWh: 0.33,
		PeakUSDPerKWh:    0.42,
		PeakStartSlot:    16 * 60,
		PeakEndSlot:      21 * 60,
		BatteryKWh:       3.0,
	}
}

// InPeak reports whether slot (minute of day) falls in the peak window.
func (p Pricing) InPeak(slot int) bool {
	return slot >= p.PeakStartSlot && slot < p.PeakEndSlot
}

// RateAt returns the $/kWh rate for energy consumed at the slot given the
// peak-window energy already consumed today (Eq 4's battery accounting):
// within the peak window the first BatteryKWh is served from storage at the
// off-peak rate.
func (p Pricing) RateAt(slot int, peakKWhSoFar float64) float64 {
	if !p.InPeak(slot) {
		return p.OffPeakUSDPerKWh
	}
	if peakKWhSoFar <= p.BatteryKWh {
		return p.OffPeakUSDPerKWh
	}
	return p.PeakUSDPerKWh
}
