package stream

import (
	"io"
	"reflect"
	"testing"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/home"
)

// handPlan builds a truth-telling plan over the first planDays days of tr
// and then edits it so the injector's corner cases all occur: occupant 0
// is reported in the zone of an appliance its reported activity uses while
// that appliance is truly on (a forged status on a truly-on appliance),
// appliance 0 is triggered over a stretch where it is already on, and a
// sparse pattern of other falsified slots covers the rest of the day. It
// mutates tr's appliance truth to set those stretches up.
func handPlan(t *testing.T, tr *aras.Trace, planDays int) *attack.Plan {
	t.Helper()
	h := tr.House
	// An (activity, appliance) pair whose appliance sits in a conditioned
	// zone, so reporting the activity there forges that appliance's status.
	act, ai := home.ActivityID(-1), -1
	for a := home.ActivityID(0); a < home.NumActivities && ai < 0; a++ {
		for _, i := range h.AppliancesForActivity(a) {
			if h.Appliances[i].Zone.Conditioned() {
				act, ai = a, i
				break
			}
		}
	}
	if ai < 0 {
		t.Fatal("house has no activity-linked appliance in a conditioned zone")
	}
	zone := h.Appliances[ai].Zone
	var zones []home.ZoneID
	for _, z := range h.Zones {
		if z.ID.Conditioned() {
			zones = append(zones, z.ID)
		}
	}
	occ, appl := len(h.Occupants), len(h.Appliances)
	p := &attack.Plan{
		RepZone:   make([][][]home.ZoneID, planDays),
		RepAct:    make([][][]home.ActivityID, planDays),
		Triggered: make([][][]bool, planDays),
	}
	for d := 0; d < planDays; d++ {
		day := tr.Days[d]
		p.RepZone[d] = make([][]home.ZoneID, occ)
		p.RepAct[d] = make([][]home.ActivityID, occ)
		for o := 0; o < occ; o++ {
			p.RepZone[d][o] = append([]home.ZoneID(nil), day.Zone[o]...)
			p.RepAct[d][o] = append([]home.ActivityID(nil), day.Act[o]...)
			for ts := 17 * (o + 1); ts < aras.SlotsPerDay; ts += 97 {
				p.RepZone[d][o][ts] = zones[(ts+d)%len(zones)]
				p.RepAct[d][o][ts] = home.ActivityID((ts + o) % home.NumActivities)
			}
		}
		for ts := 600; ts < 700; ts++ {
			p.RepZone[d][0][ts] = zone
			p.RepAct[d][0][ts] = act
			day.Zone[0][ts] = home.Outside // the report is a falsified presence
		}
		for ts := 620; ts < 660; ts++ {
			day.Appliance[ai][ts] = true
		}
		p.Triggered[d] = make([][]bool, appl)
		for a := range p.Triggered[d] {
			p.Triggered[d][a] = make([]bool, aras.SlotsPerDay)
		}
		for ts := 100; ts < 200; ts++ {
			p.Triggered[d][0][ts] = true
		}
		for ts := 150; ts < 250; ts++ {
			day.Appliance[0][ts] = true
		}
		for ts := 3; ts < aras.SlotsPerDay; ts += 211 {
			p.Triggered[d][appl-1][ts] = true
		}
	}
	return p
}

// TestRewriteBlockMatchesRewrite pins the column-wise injector to the
// per-slot one: for every slot of every day, the block RewriteBlock
// produced must decode to the frame Rewrite produces from the same
// unrewritten slot — reported occupancy, reported statuses and the
// triggered truth. It runs a hand-built plan whose horizon ends a day
// before the trace (that day must pass through untouched) and a real
// SHATTER plan on both paper houses.
func TestRewriteBlockMatchesRewrite(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		const days, trainDays = 3, 2
		tr, model := testWorld(t, name, days, trainDays)
		real := buildAttack(t, tr, model)
		hand := handPlan(t, tr, days-1)
		for _, tc := range []struct {
			label string
			plan  *attack.Plan
		}{{"hand", hand}, {"shatter", real}} {
			inj, err := NewInjector(tr.House, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			src := NewTraceSource(name, tr)
			var pristine, rewritten DayBlock
			var want, got Slot
			var forgedOn, triggeredOn, passed int
			for {
				if err := src.NextBlock(&pristine); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				copyBlock(&rewritten, &pristine)
				inj.RewriteBlock(&rewritten)
				inHorizon := pristine.Day < len(tc.plan.RepZone)
				for ts := 0; ts < aras.SlotsPerDay; ts++ {
					pristine.Slot(&want, ts)
					inj.Rewrite(&want)
					rewritten.Slot(&got, ts)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("house %s %s day %d slot %d: block rewrite differs\nslot:  %+v\nblock: %+v",
							name, tc.label, pristine.Day, ts, want, got)
					}
					if !inHorizon {
						pristine.Slot(&want, ts)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("house %s %s day %d slot %d: beyond-horizon block was rewritten", name, tc.label, pristine.Day, ts)
						}
						passed++
						continue
					}
					for a := range got.TrueAppliance {
						if pristine.TrueAppliance[a][ts] && tc.plan.Triggered[pristine.Day][a][ts] {
							triggeredOn++
						}
						if pristine.TrueAppliance[a][ts] && inj.forged(&got, a) {
							forgedOn++
						}
					}
				}
			}
			if tc.label == "hand" && (forgedOn == 0 || triggeredOn == 0 || passed == 0) {
				t.Fatalf("house %s: hand plan missed a case: %d forged-on, %d triggered-on, %d beyond-horizon slots",
					name, forgedOn, triggeredOn, passed)
			}
		}
	}
}

// TestRewriteBlockZeroAllocs requires the injector to rewrite a day-block
// without allocating.
func TestRewriteBlockZeroAllocs(t *testing.T) {
	tr, model := testWorld(t, "A", 3, 2)
	inj, err := NewInjector(tr.House, buildAttack(t, tr, model))
	if err != nil {
		t.Fatal(err)
	}
	var blk DayBlock
	if err := NewTraceSource("A", tr).NextBlock(&blk); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { inj.RewriteBlock(&blk) }); allocs != 0 {
		t.Fatalf("RewriteBlock allocates %v times per block", allocs)
	}
}

// BenchmarkRewriteBlock times the live injector on one attacked day of
// house A under a SHATTER plan. RewriteBlock is idempotent on its own
// output (the truth OR is, and every reported column is rebuilt), so the
// same block is rewritten each iteration.
func BenchmarkRewriteBlock(b *testing.B) {
	tr, model := testWorld(b, "A", 3, 2)
	plan := buildAttack(b, tr, model)
	inj, err := NewInjector(tr.House, plan)
	if err != nil {
		b.Fatal(err)
	}
	src := NewTraceSource("A", tr)
	var blk DayBlock
	for d := 0; d < tr.NumDays(); d++ { // the last day, past the training days
		if err := src.NextBlock(&blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.RewriteBlock(&blk)
	}
}
