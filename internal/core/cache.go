package core

import (
	"sync"
	"sync/atomic"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/hvac"
)

// artifactCache memoizes the expensive artifacts the experiment grid shares:
// trained ADMs, benign plant simulations, train/test splits, truth plans,
// and the BIoTA labelled-episode evaluation sets, each keyed by scenario ID
// so ScenarioSweep worlds reuse artifacts exactly like the paper pair.
// Seven of the paper's tables and figures retrain the very same models from
// scratch without it; with it the whole harness — including repeated
// benchmark iterations — computes each artifact exactly once.
//
// Every entry is built under a per-key sync.Once, so concurrent experiment
// cells that race for the same artifact block until the single builder
// finishes (singleflight semantics) and then share the result. Cached values
// are treated as immutable by all consumers.
type artifactCache struct {
	mu      sync.Mutex
	entries map[artifactKey]*cacheEntry
	// admTrains counts ADM trainings actually performed (not cache hits) —
	// the observable the cache tests and suite stats hook into.
	admTrains atomic.Int64
}

// artifactKey identifies one artifact. kind discriminates the artifact
// family; house (a scenario ID), alg, and n cover every family's parameters
// (n holds training days, occupant index, or boolean flags packed as bits
// depending on kind); extra carries the open-ended component of plan and
// impact keys (strategy plus capability signature) and is empty elsewhere.
type artifactKey struct {
	kind  artifactKind
	house string
	alg   adm.Algorithm
	n     int
	extra string
}

type artifactKind uint8

const (
	artifactADM      artifactKind = iota + 1 // (house, alg, trainDays) → *adm.Model
	artifactSplit                            // (house, n=from<<16|to) → *aras.Trace
	artifactBenign                           // (house, n=controller id) → hvac.Result
	artifactTruth                            // (house) → *attack.Plan
	artifactEpisodes                         // (house, n=occupant<<1|partial) → []adm.LabeledEpisode
	artifactPlan                             // (house, alg, n=flags, extra=strategy|capSig) → *campaign
	artifactImpact                           // (house, alg=defender, n=flags, extra=campaign sig) → attack.Impact
)

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

func newArtifactCache() *artifactCache {
	return &artifactCache{entries: make(map[artifactKey]*cacheEntry)}
}

// do returns the memoized artifact for k, building it at most once across
// all goroutines.
func (c *artifactCache) do(k artifactKey, build func() (any, error)) (any, error) {
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// size reports the number of cached entries (built or in flight).
func (c *artifactCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheStats reports the suite cache's effectiveness.
type CacheStats struct {
	// ADMTrainings is the number of adm.Train calls actually executed.
	ADMTrainings int64
	// Entries is the number of distinct cached artifacts.
	Entries int
}

// CacheStats returns the current cache counters.
func (s *Suite) CacheStats() CacheStats {
	return CacheStats{ADMTrainings: s.cache.admTrains.Load(), Entries: s.cache.size()}
}

// --- typed accessors -------------------------------------------------------

// trainADMPrefix fits (or returns the memoized) ADM for a house trained on
// the first endDays days, with the suite's per-algorithm hyperparameter
// policy. This is the single training entry point for every experiment:
// trainADM's full/partial axis and Fig 5's progressive prefixes are all
// (house, alg, endDays) points.
func (s *Suite) trainADMPrefix(house string, alg adm.Algorithm, endDays int) (*adm.Model, error) {
	v, err := s.cache.do(artifactKey{kind: artifactADM, house: house, alg: alg, n: endDays}, func() (any, error) {
		tr, err := s.trace(house).SubTrace(0, endDays)
		if err != nil {
			return nil, err
		}
		cfg := adm.DefaultConfig(alg)
		if alg == adm.DBSCAN {
			// Scale the density threshold with the training length so short
			// exploratory runs still form clusters: roughly one fifth of the
			// days must support a habit before it counts.
			cfg.MinPts = max(3, endDays/5)
			cfg.Eps = 30
		}
		s.cache.admTrains.Add(1)
		return adm.Train(tr, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*adm.Model), nil
}

// trainSplit returns the training prefix of a house's trace.
func (s *Suite) trainSplit(house string) (*aras.Trace, error) {
	return s.split(house, 0, s.Config.TrainDays)
}

// testSplit returns the held-out suffix.
func (s *Suite) testSplit(house string) (*aras.Trace, error) {
	return s.split(house, s.Config.TrainDays, s.Config.Days)
}

func (s *Suite) split(house string, from, to int) (*aras.Trace, error) {
	v, err := s.cache.do(artifactKey{kind: artifactSplit, house: house, n: from<<16 | to}, func() (any, error) {
		return s.trace(house).SubTrace(from, to)
	})
	if err != nil {
		return nil, err
	}
	return v.(*aras.Trace), nil
}

// Controller identifiers for the benign-simulation cache.
const (
	ctrlSHATTER = iota
	ctrlASHRAE
)

// benignSim returns the memoized no-attack simulation of a scenario under
// the given controller. The ctrlSHATTER entry (the scenario's configured
// controller) doubles as the benign leg of every attack-impact evaluation.
func (s *Suite) benignSim(house string, ctrlID int) (hvac.Result, error) {
	v, err := s.cache.do(artifactKey{kind: artifactBenign, house: house, n: ctrlID}, func() (any, error) {
		tr := s.trace(house)
		var ctrl hvac.Controller
		switch ctrlID {
		case ctrlASHRAE:
			ctrl = hvac.NewASHRAEController(s.Params, tr.House)
		default:
			ctrl = s.controllerFor(house)
		}
		return hvac.Simulate(tr, ctrl, s.Params, s.pricingFor(house), hvac.Options{})
	})
	if err != nil {
		return hvac.Result{}, err
	}
	return v.(hvac.Result), nil
}

// truthPlan returns the memoized no-op plan (reported = actual) for a house.
// The plan is immutable by convention: consumers must not trigger appliances
// on it. No experiment currently consumes it (BenignCosts reads the cached
// benign simulation directly); it stays as the cached reference vector for
// detection baselines and is covered by TestTruthPlanCached.
func (s *Suite) truthPlan(house string) (*attack.Plan, error) {
	v, err := s.cache.do(artifactKey{kind: artifactTruth, house: house}, func() (any, error) {
		pl := s.planner(house, nil, attack.Capability{})
		return pl.PlanBIoTA() // powerless capability ⇒ pure truth
	})
	if err != nil {
		return nil, err
	}
	return v.(*attack.Plan), nil
}

// labeledEpisodes returns the memoized Table IV / Fig 5 evaluation set for
// one occupant: benign episodes from the held-out days plus the injected
// episodes of a BIoTA attack over those days. With partial knowledge the
// attacker only alters measurements in the time windows they observed data
// for (alternating hours), which changes the attack-sample distribution the
// ADM is scored on — the Table IV "Partial Data" axis. BIoTA is ADM-
// oblivious (rule-based verification only), so the set depends solely on
// (house, occupant, partial) and is shared across every ADM backend and
// training prefix that scores against it.
func (s *Suite) labeledEpisodes(house string, occupant int, partial bool) ([]adm.LabeledEpisode, error) {
	flag := 0
	if partial {
		flag = 1
	}
	v, err := s.cache.do(artifactKey{kind: artifactEpisodes, house: house, n: occupant<<1 | flag}, func() (any, error) {
		return s.buildLabeledEpisodes(house, occupant, partial)
	})
	if err != nil {
		return nil, err
	}
	return v.([]adm.LabeledEpisode), nil
}

func (s *Suite) buildLabeledEpisodes(house string, occupant int, partial bool) ([]adm.LabeledEpisode, error) {
	test, err := s.testSplit(house)
	if err != nil {
		return nil, err
	}
	var labeled []adm.LabeledEpisode
	for _, e := range test.Episodes(occupant) {
		labeled = append(labeled, adm.LabeledEpisode{Episode: e})
	}
	capability := attack.Full(test.House)
	if partial {
		capability.SlotAllowed = func(slot int) bool { return (slot/60)%2 == 0 }
	}
	pl := s.planner(house, nil, capability)
	pl.Trace = test
	plan, err := pl.PlanBIoTA()
	if err != nil {
		return nil, err
	}
	for d := 0; d < test.NumDays(); d++ {
		for _, e := range plan.DayReportedEpisodes(test, d, occupant) {
			if e.Injected {
				labeled = append(labeled, adm.LabeledEpisode{Episode: e.Episode, Attack: true})
			}
		}
	}
	return labeled, nil
}
