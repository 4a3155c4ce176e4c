// Package core orchestrates the full SHATTER reproduction: it owns the
// generated scenario worlds and exposes one typed experiment per table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index),
// plus the full-stack ScenarioSweep over arbitrary registry or procedural
// scenarios. The cmd/experiments binary and the repository's benchmark
// harness are thin wrappers over this package.
//
// The suite is a concurrent, cache-aware experiment engine: the evaluation
// grid of {scenario × ADM backend × knowledge level × framework} cells is
// embarrassingly parallel, so each experiment fans its independent cells
// across a bounded worker pool (SuiteConfig.Workers), while a suite-level
// artifact cache (cache.go) memoizes the trained models, benign
// simulations, splits, and truth plans the cells share, keyed by scenario
// ID. Results are deterministic: a Workers=1 run and a Workers=N run
// produce identical tables.
package core

import (
	"fmt"
	"sync"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
)

// SuiteConfig parameterises a reproduction run.
type SuiteConfig struct {
	// Days is the trace length (paper: 30). Shorter values speed up
	// exploratory runs.
	Days int
	// TrainDays is the ADM training prefix (the rest is the test split).
	TrainDays int
	// Seed fixes the synthetic datasets.
	Seed uint64
	// WindowLen is the attack optimisation horizon I (paper: 10). Zero
	// selects the paper default; negative values are rejected.
	WindowLen int
	// Workers bounds the experiment worker pool. 0 (the default) uses one
	// worker per available CPU; 1 forces sequential execution for
	// reproducibility checks. Results are identical either way.
	Workers int
	// Scenarios lists the registry scenario IDs the suite loads, in order.
	// Empty selects the paper's ARAS pair {"A", "B"}, reproducing the
	// hardwired evaluation exactly.
	Scenarios []string
}

// DefaultSuiteConfig mirrors the paper's setup.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{Days: 30, TrainDays: 25, Seed: 20230427, WindowLen: 10}
}

// Validate reports configuration errors. It is the single validation point
// shared by NewSuite and the CLI front-ends.
func (c SuiteConfig) Validate() error {
	if c.Days < 2 || c.TrainDays < 1 || c.TrainDays >= c.Days {
		return fmt.Errorf("core: need Days >= 2 and 1 <= TrainDays < Days, got %d/%d", c.TrainDays, c.Days)
	}
	if c.WindowLen < 0 {
		return fmt.Errorf("core: need WindowLen >= 0 (0 = paper default 10), got %d", c.WindowLen)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: need Workers >= 0 (0 = one per CPU), got %d", c.Workers)
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for _, id := range c.Scenarios {
		if _, ok := scenario.Get(id); !ok {
			return fmt.Errorf("core: unknown scenario %q (registered: %v)", id, scenario.IDs())
		}
		if seen[id] {
			return fmt.Errorf("core: scenario %q listed twice", id)
		}
		seen[id] = true
	}
	return nil
}

// normalized resolves the config defaults Validate treats as sentinels.
func (c SuiteConfig) normalized() SuiteConfig {
	if c.WindowLen == 0 {
		c.WindowLen = 10
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []string{"A", "B"}
	}
	return c
}

// World is one loaded scenario: its declarative spec and generated trace.
type World struct {
	ID    string
	Spec  scenario.Spec
	Trace *aras.Trace
	// Seed is the base seed the trace was generated from — the seed an
	// incremental source must use to reproduce the trace frame-by-frame
	// (Suite.Stream's generator jobs).
	Seed uint64
}

// Suite holds the generated worlds and shared parameters.
type Suite struct {
	Config  SuiteConfig
	Params  hvac.Params
	Pricing hvac.Pricing
	// Worlds are the configured scenarios in order. ScenarioSweep may load
	// further worlds on demand; those are reachable through Trace/World but
	// do not join the experiment grid.
	Worlds []*World

	mu    sync.RWMutex
	byID  map[string]*World
	cache *artifactCache
}

// NewSuite generates the configured scenarios' traces.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Suite{
		Config:  cfg,
		Params:  hvac.DefaultParams(),
		Pricing: hvac.DefaultPricing(),
		byID:    make(map[string]*World, len(cfg.Scenarios)),
		cache:   newArtifactCache(),
	}
	// The scenarios' generators are independent (separate seeds), so build
	// them as cells of the suite's worker pool.
	worlds := make([]*World, len(cfg.Scenarios))
	err := s.runCells(len(worlds), func(i int) error {
		sp, _ := scenario.Get(cfg.Scenarios[i])
		seed := cfg.Seed + uint64(i)
		tr, err := sp.Generate(cfg.Days, seed)
		if err != nil {
			return fmt.Errorf("core: generate scenario %s: %w", sp.ID, err)
		}
		worlds[i] = &World{ID: sp.ID, Spec: sp, Trace: tr, Seed: seed}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Worlds = worlds
	for _, w := range worlds {
		s.byID[w.ID] = w
	}
	return s, nil
}

// World returns the loaded world for a scenario ID (nil when not loaded).
func (s *Suite) World(id string) *World {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// Trace returns the generated trace for a loaded scenario (nil when not
// loaded).
func (s *Suite) Trace(id string) *aras.Trace {
	if w := s.World(id); w != nil {
		return w.Trace
	}
	return nil
}

// trace is the internal accessor for scenario IDs the suite is known to
// have loaded; an unknown ID is a programmer error.
func (s *Suite) trace(id string) *aras.Trace {
	tr := s.Trace(id)
	if tr == nil {
		panic(fmt.Sprintf("core: scenario %q not loaded", id))
	}
	return tr
}

// ScenarioIDs returns the configured scenario IDs in order — the axis the
// paper experiments iterate (on-demand sweep worlds are excluded).
func (s *Suite) ScenarioIDs() []string {
	ids := make([]string, len(s.Worlds))
	for i, w := range s.Worlds {
		ids[i] = w.ID
	}
	return ids
}

// trainADM fits an ADM of the given algorithm on a scenario's training
// split, memoized by the suite cache. Partial-knowledge attacker models
// train on only the first half of the training days (Section VII's
// "partial data").
func (s *Suite) trainADM(id string, alg adm.Algorithm, partial bool) (*adm.Model, error) {
	end := s.Config.TrainDays
	if partial {
		end = (s.Config.TrainDays + 1) / 2
	}
	return s.trainADMPrefix(id, alg, end)
}

// planner builds an attack planner against a scenario with the given
// attacker model and capability. The planner fans its occupant-day cells
// across the suite's worker width.
func (s *Suite) planner(id string, model *adm.Model, capability attack.Capability) *attack.Planner {
	tr := s.trace(id)
	return &attack.Planner{
		Trace:     tr,
		Model:     model,
		Cost:      hvac.NewCostModel(tr.House, s.Params, s.pricingFor(id)),
		Cap:       capability,
		WindowLen: s.Config.WindowLen,
		Workers:   s.Config.Workers,
	}
}

// controllerFor returns the scenario's chosen DCHVAC controller under the
// suite params — the paper's SHATTER controller unless the spec opts into
// the ASHRAE baseline.
func (s *Suite) controllerFor(id string) hvac.Controller {
	if w := s.World(id); w != nil && w.Spec.Controller == scenario.ControllerASHRAE {
		return hvac.NewASHRAEController(s.Params, w.Trace.House)
	}
	return &hvac.SHATTERController{Params: s.Params}
}

// pricingFor returns the scenario's tariff (the suite default unless the
// spec overrides it).
func (s *Suite) pricingFor(id string) hvac.Pricing {
	if w := s.World(id); w != nil && w.Spec.Pricing != nil {
		return *w.Spec.Pricing
	}
	return s.Pricing
}

// Fig3Result is one scenario's controller-cost comparison (Fig 3): the
// daily cost series under the ASHRAE baseline and the activity-aware
// SHATTER controller, plus the monthly saving.
type Fig3Result struct {
	House      string
	ASHRAE     []float64
	SHATTER    []float64
	SavingsPct float64
}

// Fig3 reproduces the Fig 3 controller comparison for every configured
// scenario. The (scenario, controller) simulations run as independent cells
// and land in the benign-simulation cache, where the SHATTER legs are
// shared with every attack-impact evaluation.
func (s *Suite) Fig3() ([]Fig3Result, error) {
	houses := s.ScenarioIDs()
	type cell struct {
		house  string
		ctrlID int
	}
	var cells []cell
	for _, house := range houses {
		cells = append(cells, cell{house, ctrlSHATTER}, cell{house, ctrlASHRAE})
	}
	sims := make([]hvac.Result, len(cells))
	err := s.runCells(len(cells), func(i int) error {
		res, err := s.benignSim(cells[i].house, cells[i].ctrlID)
		if err != nil {
			return fmt.Errorf("core: fig3 %s: %w", cells[i].house, err)
		}
		sims[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig3Result, 0, len(houses))
	for hi, house := range houses {
		shatter, ashrae := sims[2*hi], sims[2*hi+1]
		out = append(out, Fig3Result{
			House:      house,
			ASHRAE:     ashrae.DailyCostUSD,
			SHATTER:    shatter.DailyCostUSD,
			SavingsPct: (1 - shatter.TotalCostUSD/ashrae.TotalCostUSD) * 100,
		})
	}
	return out, nil
}
