package core

import (
	"fmt"

	"github.com/acyd-lab/shatter/internal/adm"
	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/attack"
	"github.com/acyd-lab/shatter/internal/hvac"
	"github.com/acyd-lab/shatter/internal/scenario"
	"github.com/acyd-lab/shatter/internal/stream"
)

// StreamOptions configures a Suite.Stream fleet run.
type StreamOptions struct {
	// Days bounds each home's stream; 0 streams the suite's configured
	// trace length, which makes a defended/attacked run comparable
	// slot-for-slot with the batch pipeline over the same world.
	Days int
	// Defend attaches an online detector per home: the suite's cached
	// DBSCAN defender (trained on the configured training prefix) scores
	// episodes the moment they close.
	Defend bool
	// Attack plans a full-knowledge SHATTER campaign (sensor spoofing +
	// Algorithm-1 appliance triggering) per home and injects it into the
	// stream in flight.
	Attack bool
	// Broker, when non-empty, routes every home's frames through the MQTT
	// broker at this address (per-home topics, fleet-wide monitor).
	Broker string
	// Recover enables the fault-tolerant supervisor: failed homes retry
	// from their last checkpoint up to MaxRetries, then quarantine with a
	// recorded error instead of aborting the fleet.
	Recover bool
	// MaxRetries bounds retry attempts per home; 0 takes the stream-layer
	// default, negative disables retries.
	MaxRetries int
	// FailFast aborts the whole fleet on the first quarantined home even
	// when Recover is set.
	FailFast bool
	// CheckpointDir persists per-home day-boundary checkpoints so retries
	// (and later runs) resume instead of replaying from day zero.
	CheckpointDir string
	// AsyncCheckpoints moves checkpoint disk writes off the drive hot path
	// onto a background sink with flush barriers (see
	// stream.FleetOptions.AsyncCheckpoints).
	AsyncCheckpoints bool
	// Chaos injects a deterministic fault schedule into every home's
	// transport — the resilience test harness.
	Chaos *stream.FaultConfig
	// Clock times chaos delays and retry backoff; nil is real wall-clock
	// time, a stream.VirtualClock makes chaos runs compute-bound with
	// byte-identical results.
	Clock stream.Clock
}

// Stream drives the scenario worlds as a concurrent streaming fleet: each
// home advances one day-block at a time through an incremental generator
// source, the optional live injector, the optional online detector, and the
// incremental HVAC stepper, across the suite's worker pool with per-home
// backpressure.
// Per-home results and the deterministic aggregate fields are identical for
// any worker count, and — because every streaming stage is equivalence-
// locked to its batch counterpart — identical to the batch pipeline over
// the same worlds.
//
// Worlds are materialized (and defenders trained, campaigns planned) only
// when Defend or Attack demands them; a plain benign fleet streams straight
// from the generators without ever holding a full trace.
func (s *Suite) Stream(specs []scenario.Spec, opts StreamOptions) (stream.FleetResult, error) {
	jobs, err := s.FleetJobs(specs, opts)
	if err != nil {
		return stream.FleetResult{}, err
	}
	return stream.RunFleet(jobs, stream.FleetOptions{
		Workers:          s.Config.Workers,
		Broker:           opts.Broker,
		Recover:          opts.Recover,
		MaxRetries:       opts.MaxRetries,
		FailFast:         opts.FailFast,
		CheckpointDir:    opts.CheckpointDir,
		AsyncCheckpoints: opts.AsyncCheckpoints,
		Chaos:            opts.Chaos,
		Clock:            opts.Clock,
	})
}

// FleetJobs assembles one lazily-opening stream job per spec — the job
// list both Stream and the fleetd service run, so a sharded service and a
// one-shot RunFleet drive byte-identical pipelines. Worlds are materialized
// (and defenders trained, campaigns planned) up front across the pool only
// when Defend or Attack demands them; a benign fleet streams straight from
// the generators without ever holding a full trace.
func (s *Suite) FleetJobs(specs []scenario.Spec, opts StreamOptions) ([]stream.Job, error) {
	days := opts.Days
	if days <= 0 {
		days = s.Config.Days
	}
	if opts.Defend || opts.Attack {
		// Training and planning need the materialized trace; build every
		// world up front across the pool so job Opens only read.
		if err := s.runCells(len(specs), func(i int) error {
			_, err := s.ensureWorld(specs[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	jobs := make([]stream.Job, len(specs))
	for i, sp := range specs {
		sp := sp
		jobs[i] = stream.Job{ID: sp.ID, Open: func() (stream.Source, *stream.Home, error) {
			src, h, err := s.openStream(sp, days, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("core: stream %s: %w", sp.ID, err)
			}
			return src, h, nil
		}}
	}
	return jobs, nil
}

// openStream assembles one home's streaming pipeline on the worker that
// picked the job up.
func (s *Suite) openStream(sp scenario.Spec, days int, opts StreamOptions) (stream.Source, *stream.Home, error) {
	cfg := stream.HomeConfig{ID: sp.ID, Params: s.Params, Pricing: s.Pricing}
	if sp.Pricing != nil {
		cfg.Pricing = *sp.Pricing
	}
	var seed uint64
	if w := s.World(sp.ID); w != nil {
		cfg.House, seed = w.Trace.House, w.Seed
	} else {
		house, err := sp.Build()
		if err != nil {
			return nil, nil, err
		}
		// The seed ensureWorld would use, so a later materialization of the
		// same scenario replays exactly this stream.
		cfg.House, seed = house, sweepSeed(s.Config.Seed, sp.ID)
	}
	if sp.Controller == scenario.ControllerASHRAE {
		cfg.Controller = hvac.NewASHRAEController(s.Params, cfg.House)
	}
	if opts.Defend || opts.Attack {
		defender, err := s.trainADM(sp.ID, adm.DBSCAN, false)
		if err != nil {
			return nil, nil, err
		}
		if opts.Defend {
			cfg.Defender = defender
		}
		if opts.Attack {
			// The triggered SHATTER campaign comes from the suite cache —
			// the same entry the scenario sweep evaluates — so a fleet
			// that streams a previously analysed world injects its cached
			// campaign instead of re-planning it.
			camp, err := s.campaignFor(campaignSpec{
				House:    sp.ID,
				Strategy: "SHATTER",
				Alg:      adm.DBSCAN,
				Trigger:  true,
				Cap:      attack.Full(cfg.House),
			})
			if err != nil {
				return nil, nil, err
			}
			inj, err := stream.NewInjector(cfg.House, camp.plan)
			if err != nil {
				return nil, nil, err
			}
			cfg.Injector = inj
		}
	}
	gen, err := aras.NewGenerator(cfg.House, sp.GeneratorConfig(days, seed))
	if err != nil {
		return nil, nil, err
	}
	h, err := stream.NewHome(cfg)
	if err != nil {
		return nil, nil, err
	}
	return stream.NewGeneratorSource(sp.ID, gen), h, nil
}
