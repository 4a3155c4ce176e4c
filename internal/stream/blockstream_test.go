package stream

import (
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// buildAttack plans a triggered SHATTER campaign over the fixture world —
// the shared setup for the attacked block-equivalence cases.
func buildAttack(t testing.TB, tr *aras.Trace, model *adm.Model) *attack.Plan {
	t.Helper()
	pl := &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, hvac.DefaultParams(), hvac.DefaultPricing()),
		Cap:       attack.Full(tr.House),
		WindowLen: 10,
	}
	plan, err := pl.PlanSHATTER()
	if err != nil {
		t.Fatal(err)
	}
	attack.TriggerAppliances(tr, plan, model, attack.Full(tr.House))
	return plan
}

// homePair builds two identically configured Homes (separate controller and
// injector instances — both hold per-run scratch).
func homePair(t *testing.T, name string, tr *aras.Trace, model *adm.Model, plan *attack.Plan) (slot, block *Home, slotV, blockV *[]adm.Verdict) {
	t.Helper()
	mk := func(streamed *[]adm.Verdict) *Home {
		cfg := HomeConfig{
			ID:      name,
			House:   tr.House,
			Params:  hvac.DefaultParams(),
			Pricing: hvac.DefaultPricing(),
			OnVerdict: func(v adm.Verdict) {
				*streamed = append(*streamed, v)
			},
		}
		if model != nil {
			cfg.Defender = model
		}
		if plan != nil {
			inj, err := NewInjector(tr.House, plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Injector = inj
		}
		h, err := NewHome(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	var sv, bv []adm.Verdict
	return mk(&sv), mk(&bv), &sv, &bv
}

// TestIngestDayMatchesIngest pins the day-block path to aras.SlotsPerDay
// per-slot Ingest calls: identical HomeResult (plant accounting, detection
// counters, injection ledger) and identical verdict emission order, for
// benign, defended, and attacked pipelines on both paper houses, over both
// source kinds.
func TestIngestDayMatchesIngest(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 6, 4
		tr, model := testWorld(t, name, days, trainDays)
		plan := buildAttack(t, tr, model)
		for _, tc := range []struct {
			label string
			model *adm.Model
			plan  *attack.Plan
		}{
			{"benign", nil, nil},
			{"defended", model, nil},
			{"attacked", model, plan},
		} {
			slotHome, blockHome, slotV, blockV := homePair(t, name, tr, tc.model, tc.plan)
			slotRes := drive(t, NewTraceSource(name, tr), slotHome, nil)

			src := NewTraceSource(name, tr)
			var blk DayBlock
			for {
				if err := src.NextBlock(&blk); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				if _, err := blockHome.IngestDay(&blk); err != nil {
					t.Fatal(err)
				}
			}
			blockRes, err := blockHome.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slotRes, blockRes) {
				t.Errorf("house %s %s: block result differs from slot result\nslot:  %+v\nblock: %+v", name, tc.label, slotRes, blockRes)
			}
			if !reflect.DeepEqual(*slotV, *blockV) {
				t.Errorf("house %s %s: verdict stream differs (%d slot vs %d block)", name, tc.label, len(*slotV), len(*blockV))
			}
		}
	}
}

// TestGeneratorBlockMatchesSlots pins GeneratorSource.NextBlock against the
// per-slot Next stream: the same frames decode out of the blocks, and a
// defended home fed blocks matches one fed slots.
func TestGeneratorBlockMatchesSlots(t *testing.T) {
	const days = 4
	house := home.MustHouse("A")
	mkGen := func() *aras.Generator {
		g, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: days, Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	slotSrc := NewGeneratorSource("A", mkGen())
	blockSrc := NewGeneratorSource("A", mkGen())
	var s, fromBlock Slot
	var blk DayBlock
	for d := 0; d < days; d++ {
		if err := blockSrc.NextBlock(&blk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < aras.SlotsPerDay; i++ {
			if err := slotSrc.Next(&s); err != nil {
				t.Fatal(err)
			}
			blk.Slot(&fromBlock, i)
			if !reflect.DeepEqual(s, fromBlock) {
				t.Fatalf("day %d slot %d: block decode differs from slot stream\nslot:  %+v\nblock: %+v", d, i, s, fromBlock)
			}
		}
	}
	if err := blockSrc.NextBlock(&blk); err != io.EOF {
		t.Fatalf("block stream past bound: %v, want io.EOF", err)
	}
}

// TestIngestDayHygiene covers the block path's stream-order cross-checks.
func TestIngestDayHygiene(t *testing.T) {
	house := home.MustHouse("A")
	gen, err := aras.NewGenerator(house, aras.GeneratorConfig{Days: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHome(HomeConfig{ID: "A", House: house, Params: hvac.DefaultParams(), Pricing: hvac.DefaultPricing()})
	if err != nil {
		t.Fatal(err)
	}
	src := NewGeneratorSource("A", gen)
	var blk DayBlock
	if err := src.NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	if _, err := h.IngestDay(&blk); err != nil {
		t.Fatal(err)
	}
	// Replaying the same day is out of order for the stepper.
	if _, err := h.IngestDay(&blk); err == nil {
		t.Error("replayed day block accepted")
	}
	// A mid-day per-slot cursor refuses to coarsen into blocks.
	var s Slot
	if err := src.Next(&s); err != nil {
		t.Fatal(err)
	}
	if err := src.NextBlock(&blk); err == nil {
		t.Error("mid-day NextBlock accepted")
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.IngestDay(&blk); err == nil {
		t.Error("IngestDay after Close accepted")
	}
}
