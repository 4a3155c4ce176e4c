package stream

import (
	"fmt"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/home"
)

// DayBlock is one whole home-day of sensor traffic in struct-of-arrays
// layout: parallel per-slot columns of weather, per-occupant zones and
// activities, and per-appliance statuses, each aras.SlotsPerDay long. It is
// the streaming hot path's frame — a source emits one block per home-day,
// the injector rewrites its reported columns in place, and Home.IngestDay
// advances detection and the HVAC plant over the contiguous columns without
// materializing 1440 per-slot Slot frames. Slot decodes a block back to
// frame granularity for callers that need it.
type DayBlock struct {
	// Home identifies the emitting home on the fleet bus.
	Home string
	// Day is the day index the block covers; its slots are (Day, 0..1439).
	Day int
	// TempF and CO2PPM are the day's outdoor weather columns.
	TempF  []float64
	CO2PPM []float64
	// TrueZone[o][t] / TrueAct[o][t] are occupant o's ground truth;
	// TrueAppliance[a][t] the real electrical state of appliance a.
	TrueZone      [][]home.ZoneID
	TrueAct       [][]home.ActivityID
	TrueAppliance [][]bool
	// RepZone/RepAct/RepAppliance are the reported (believed) columns; they
	// mirror the truth until an Injector falsifies them.
	RepZone      [][]home.ZoneID
	RepAct       [][]home.ActivityID
	RepAppliance [][]bool
}

// BlockSource is implemented by sources that can emit whole home-days in
// struct-of-arrays layout. NextBlock fills dst (reusing its backing storage
// where possible) and returns io.EOF at end of stream; blocks are emitted in
// day order and only from a day boundary — a source whose per-slot cursor
// sits mid-day refuses to coarsen. Every Source embeds it, so the fleet
// engines need no capability negotiation with the generator or trace layers.
type BlockSource interface {
	NextBlock(dst *DayBlock) error
}

// ensure sizes the block's columns for a home with the given occupant and
// appliance counts, reusing backing storage where the shape already fits.
func (b *DayBlock) ensure(occupants, appliances int) {
	b.TempF = growFloats(b.TempF)
	b.CO2PPM = growFloats(b.CO2PPM)
	b.TrueZone = growZoneCols(b.TrueZone, occupants)
	b.RepZone = growZoneCols(b.RepZone, occupants)
	b.TrueAct = growActCols(b.TrueAct, occupants)
	b.RepAct = growActCols(b.RepAct, occupants)
	b.TrueAppliance = growBoolCols(b.TrueAppliance, appliances)
	b.RepAppliance = growBoolCols(b.RepAppliance, appliances)
}

// shapeErr verifies the block matches a home's occupant/appliance shape with
// full-length columns.
func (b *DayBlock) shapeErr(occupants, appliances int) error {
	if len(b.TempF) != aras.SlotsPerDay || len(b.CO2PPM) != aras.SlotsPerDay {
		return fmt.Errorf("stream: block weather columns sized %d/%d, want %d", len(b.TempF), len(b.CO2PPM), aras.SlotsPerDay)
	}
	if len(b.TrueZone) != occupants || len(b.TrueAct) != occupants ||
		len(b.RepZone) != occupants || len(b.RepAct) != occupants {
		return fmt.Errorf("stream: block occupant columns %d/%d/%d/%d, want %d",
			len(b.TrueZone), len(b.TrueAct), len(b.RepZone), len(b.RepAct), occupants)
	}
	if len(b.TrueAppliance) != appliances || len(b.RepAppliance) != appliances {
		return fmt.Errorf("stream: block appliance columns %d/%d, want %d", len(b.TrueAppliance), len(b.RepAppliance), appliances)
	}
	for o := 0; o < occupants; o++ {
		if len(b.TrueZone[o]) != aras.SlotsPerDay || len(b.TrueAct[o]) != aras.SlotsPerDay ||
			len(b.RepZone[o]) != aras.SlotsPerDay || len(b.RepAct[o]) != aras.SlotsPerDay {
			return fmt.Errorf("stream: block occupant %d column not %d slots", o, aras.SlotsPerDay)
		}
	}
	for a := 0; a < appliances; a++ {
		if len(b.TrueAppliance[a]) != aras.SlotsPerDay || len(b.RepAppliance[a]) != aras.SlotsPerDay {
			return fmt.Errorf("stream: block appliance %d column not %d slots", a, aras.SlotsPerDay)
		}
	}
	return nil
}

// mirrorTruth copies the ground-truth columns into the reported view (the
// benign state an Injector then perturbs).
func (b *DayBlock) mirrorTruth() {
	for o := range b.TrueZone {
		copy(b.RepZone[o], b.TrueZone[o])
		copy(b.RepAct[o], b.TrueAct[o])
	}
	for a := range b.TrueAppliance {
		copy(b.RepAppliance[a], b.TrueAppliance[a])
	}
}

// Slot decodes minute t of the block into a per-slot frame — the shim that
// serves frame-granularity consumers from block-granularity transport.
func (b *DayBlock) Slot(dst *Slot, t int) {
	dst.ensure(len(b.TrueZone), len(b.TrueAppliance))
	dst.Home = b.Home
	dst.Day = b.Day
	dst.Index = t
	dst.OutdoorTempF = b.TempF[t]
	dst.OutdoorCO2PPM = b.CO2PPM[t]
	for o := range b.TrueZone {
		dst.True[o] = OccupantReading{Zone: b.TrueZone[o][t], Activity: b.TrueAct[o][t]}
		dst.Reported[o] = OccupantReading{Zone: b.RepZone[o][t], Activity: b.RepAct[o][t]}
	}
	for a := range b.TrueAppliance {
		dst.TrueAppliance[a] = b.TrueAppliance[a][t]
		dst.ReportedAppliance[a] = b.RepAppliance[a][t]
	}
}

func growFloats(b []float64) []float64 {
	if cap(b) < aras.SlotsPerDay {
		return make([]float64, aras.SlotsPerDay)
	}
	return b[:aras.SlotsPerDay]
}

func growZoneCols(cols [][]home.ZoneID, n int) [][]home.ZoneID {
	if cap(cols) < n {
		cols = make([][]home.ZoneID, n)
	}
	cols = cols[:n]
	for i := range cols {
		if cap(cols[i]) < aras.SlotsPerDay {
			cols[i] = make([]home.ZoneID, aras.SlotsPerDay)
		} else {
			cols[i] = cols[i][:aras.SlotsPerDay]
		}
	}
	return cols
}

func growActCols(cols [][]home.ActivityID, n int) [][]home.ActivityID {
	if cap(cols) < n {
		cols = make([][]home.ActivityID, n)
	}
	cols = cols[:n]
	for i := range cols {
		if cap(cols[i]) < aras.SlotsPerDay {
			cols[i] = make([]home.ActivityID, aras.SlotsPerDay)
		} else {
			cols[i] = cols[i][:aras.SlotsPerDay]
		}
	}
	return cols
}

func growBoolCols(cols [][]bool, n int) [][]bool {
	if cap(cols) < n {
		cols = make([][]bool, n)
	}
	cols = cols[:n]
	for i := range cols {
		if cap(cols[i]) < aras.SlotsPerDay {
			cols[i] = make([]bool, aras.SlotsPerDay)
		} else {
			cols[i] = cols[i][:aras.SlotsPerDay]
		}
	}
	return cols
}
