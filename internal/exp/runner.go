package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"breakhammer/internal/mitigation"
	"breakhammer/internal/results"
	"breakhammer/internal/scenario"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// Options scales the experiment harness. The paper-scale values (90
// workloads per point, 100M instructions, seven N_RH values) take cluster
// days; the defaults reproduce every figure's shape in minutes.
type Options struct {
	Base          sim.Config // base system configuration
	MixesPerGroup int        // workload mixes per group (paper: 15)
	NRHs          []int      // RowHammer threshold sweep, descending (paper: 4K..64)
	Mechanisms    []string   // mechanisms for ±BreakHammer comparisons
	Fig2Mechs     []string   // the four motivation mechanisms of Fig. 2
	Percentiles   []float64  // latency percentiles for Figs. 11/17
	THthreats     []float64  // TH_threat sweep for Fig. 19

	// Traces switches the workload catalogue from the synthetic H/M/L
	// groups to recorded trace files, one benign core per file (see
	// TraceMixes). Every point-sweep experiment point then replays
	// these traces; attacker-family points add the synthetic attacker
	// on an extra core. Study points (Table 3, Section 5) bring their own
	// synthetic workloads and ignore this field. Points are keyed by the
	// traces' content hashes, so a cache directory warmed with one
	// spelling of the paths stays warm when the files move.
	Traces []string

	// Strategies and Defenses span the adversarial scenario grid (the
	// "scenarios" experiment): every (strategy, defense) pair becomes one
	// frontier point at the lowest N_RH. Strategies name entries of the
	// scenario-strategy registry; Defenses are parsed compositions
	// ("graphene+bh", "prac+rfm+bh").
	Strategies []string
	Defenses   []scenario.Defense
}

// DefaultOptions returns the scaled-down harness configuration.
func DefaultOptions() Options {
	return Options{
		Base:          sim.FastConfig(),
		MixesPerGroup: 1,
		NRHs:          []int{4096, 1024, 256, 64},
		Mechanisms:    mitigation.Names(),
		Fig2Mechs:     []string{"hydra", "rfm", "para", "aqua"},
		Percentiles:   []float64{50, 90, 99, 99.9},
		THthreats:     []float64{32, 512, 4096},
		Strategies:    scenario.Strategies(),
		Defenses:      scenario.DefaultDefenses(),
	}
}

// QuickOptions returns a minimal configuration for smoke tests and
// benchmarks: two thresholds, four mechanisms, short runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Base.TargetInsts = 150_000
	o.Base.BHWindow = 250_000
	o.NRHs = []int{1024, 256}
	o.Mechanisms = []string{"para", "graphene", "hydra", "rfm"}
	o.Fig2Mechs = []string{"hydra", "rfm", "para", "graphene"}
	return o
}

// minNRH returns the smallest (most vulnerable) threshold in the sweep.
func (o Options) minNRH() int { return slices.Min(o.NRHs) }

// midNRH returns the threshold closest to the paper's 1K operating point
// (the first listed, on a tie).
func (o Options) midNRH() int {
	dist := func(v int) int { return max(v-1024, 1024-v) }
	return slices.MinFunc(o.NRHs, func(a, b int) int { return dist(a) - dist(b) })
}

// Runner is the sweep orchestrator: it executes simulations shared across
// figures (Figs. 8, 9, 10 and 12 all read the same attacker sweep)
// exactly once, backed by a results.Store. With a persistent store the
// memoization survives the process: a repeated or interrupted sweep only
// simulates points the store has never seen. See PointsFor/Prefetch for
// running whole sweeps in a bounded worker pool.
type Runner struct {
	opts     Options
	store    *results.Store
	jobs     int
	progress ProgressFunc
	executed int64 // simulation points actually run (not served from the store)

	// reads is non-nil only on the recording runner PointsFor renders
	// against (enumeration mode): point logs what it was asked for here
	// instead of touching the store.
	reads *[]Point

	// keyMu guards the memoized store keys: each point's (PointKey) and
	// each experiment's keyed-point list (Coverage). Keys are pure
	// functions of the immutable Options — plus, for trace-backed
	// options, of the trace files' contents — but deriving one means
	// fingerprinting the full config +
	// mixes and hashing it: about a millisecond, which a sweep pass that
	// keys every point when queueing it and again when rendering each
	// figure that reads it, or a server rendering a catalogue listing,
	// must not pay per use. keyEpoch concatenates the resolved trace
	// content hashes; when a trace file is edited in place the epoch
	// changes and every memoized key is dropped, so a long-running
	// server never keys a point by content the file no longer has.
	keyMu       sync.Mutex
	keyEpoch    string
	keys        map[Point]string       // point -> store key
	pointKeys   map[string]keyedPoints // experiment name -> deduplicated points with store keys
	derivations int                    // point keys derived, not recalled (tests pin it)
}

// NewRunner builds a Runner memoizing into process memory only —
// behaviourally identical to a persistent runner minus durability.
func NewRunner(opts Options) *Runner {
	return NewRunnerWithStore(opts, results.NewMemory())
}

// NewRunnerWithStore builds a Runner backed by an explicit results store,
// typically one opened on a cache directory so sweeps are resumable.
func NewRunnerWithStore(opts Options, store *results.Store) *Runner {
	if store == nil {
		store = results.NewMemory()
	}
	return &Runner{
		opts:      opts,
		store:     store,
		keys:      make(map[Point]string),
		pointKeys: make(map[string]keyedPoints),
	}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Store returns the backing results store (never nil).
func (r *Runner) Store() *results.Store { return r.store }

// SetJobs bounds the number of configuration points Prefetch simulates
// concurrently (<= 0 restores the default, GOMAXPROCS/4 with a floor of
// 2). Each point additionally parallelizes across its own mixes, so
// modest values already saturate the machine; raise it only when points
// are small or mixes few.
func (r *Runner) SetJobs(n int) { r.jobs = n }

// SetProgress installs the default typed-event callback streamed by
// Prefetch (PrefetchContext callers may override it per call).
func (r *Runner) SetProgress(f ProgressFunc) { r.progress = f }

// WithOptions returns a runner over the same store (and therefore the
// same claims and warm records) but resolving a different
// option set. bhserve derives one per POST-parameterized figure
// request: the derived runner re-keys its points from its own options,
// while every key it derives that the base sweep already computed is
// served warm from the shared store.
func (r *Runner) WithOptions(opts Options) *Runner {
	nr := NewRunnerWithStore(opts, r.store)
	nr.jobs = r.jobs
	nr.progress = r.progress
	return nr
}

// Executed returns how many configuration points this runner actually
// simulated (cache misses). A fully warm sweep reports zero.
func (r *Runner) Executed() int64 { return atomic.LoadInt64(&r.executed) }

func (r *Runner) mixes(attack bool) []workload.Mix {
	if len(r.opts.Traces) > 0 {
		return TraceMixes(r.opts.Traces, r.opts.MixesPerGroup, attack)
	}
	if attack {
		return workload.AttackMixes(r.opts.MixesPerGroup)
	}
	return workload.BenignMixes(r.opts.MixesPerGroup)
}

// scenarioSeed individualises the scenario grid's workload streams. It is
// a constant so every grid point content-addresses deterministically.
const scenarioSeed = 7*104729 + 1

// mixesFor returns the mix list a point simulates: the study's own
// mixes or the scenario strategy mix when the point carries one, the
// family selected by Attack otherwise. The strategy mix depends on the
// point's N_RH (the decoy models the tracker's action trigger from it),
// so it is derived per point, not per family.
func (r *Runner) mixesFor(p Point) ([]workload.Mix, error) {
	switch {
	case p.Study != "":
		return studyMixes(p)
	case p.Scenario != "":
		m, err := scenario.Mix(p.Scenario, p.NRH, scenarioSeed)
		if err != nil {
			return nil, err
		}
		return []workload.Mix{m}, nil
	}
	return r.mixes(p.Attack), nil
}

// results runs (or recalls) one configuration point across all mixes of a
// family.
func (r *Runner) results(mech string, nrh int, bh, attack bool) ([]sim.MixResult, error) {
	return r.point(Point{Mech: mech, NRH: nrh, BH: bh, Attack: attack})
}

// point serves p from the store or, on a miss, runs it as a one-point
// sweep — through the same queue as Prefetch, so a figure rendered
// without prefetching still takes the point's claim and concurrent
// sweeps (other goroutines sharing this store, other processes sharing
// the cache directory) run it exactly once between them.
//
// It is the one place a renderer reads the store, which is what lets
// PointsFor enumerate by rendering: on a recording runner it logs p and
// hands back zero-valued results, one per mix, so the renderer's loops
// run their full course over data that reads as "nothing happened".
func (r *Runner) point(p Point) ([]sim.MixResult, error) {
	if r.reads != nil {
		*r.reads = append(*r.reads, p)
		mixes, err := r.mixesFor(p)
		return make([]sim.MixResult, len(mixes)), err
	}
	key, err := r.PointKey(p)
	if err != nil {
		return nil, err
	}
	if rs, ok := r.store.Get(key); ok {
		return rs, nil
	}
	// Silent: a render-time point is not sweep progress.
	if err := r.PrefetchContext(context.Background(), []Point{p}, func(Event) {}); err != nil {
		return nil, err
	}
	rs, _ := r.store.Get(key)
	return rs, nil
}

// resolvedMixes returns p's mix list with trace content hashes pinned
// up front: a key derived from the result and a simulation run with the
// same resolved mixes are guaranteed to describe the same trace bytes.
// Were the mixes left unresolved, a trace edited between keying and
// simulating would run the new content yet store it under the old
// content's key — workload.NewSource verifies the pinned hash against
// the file at simulation time and fails loudly instead.
func (r *Runner) resolvedMixes(p Point) ([]workload.Mix, error) {
	base, err := r.mixesFor(p)
	if err != nil {
		return nil, err
	}
	return workload.ResolveTraceHashes(base)
}

// PointKey derives the content address of one configuration point —
// the exact key its results are stored under, with trace hashes
// resolved first. The point queue leases points by this key and
// validates completions against it, so a consumer whose derivation
// disagrees (diverged options, code, or trace content) is rejected
// instead of poisoning the store.
//
// The key is derived once per point per trace epoch and recalled after
// that (see keyMu). Derivations run under keyMu, one at a time: the lock
// is what makes "once" hold between concurrent sweeps.
func (r *Runner) PointKey(p Point) (string, error) {
	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	if err := r.refreshKeyEpochLocked(); err != nil {
		return "", err
	}
	if key, ok := r.keys[p]; ok {
		return key, nil
	}
	mixes, err := r.resolvedMixes(p)
	if err != nil {
		return "", err
	}
	key, err := results.Key(r.configFor(p), mixes)
	if err != nil {
		return "", err
	}
	r.derivations++
	r.keys[p] = key
	return key, nil
}

// keyedPoints is a point list with its store keys, parallel slices
// deduplicated by key.
type keyedPoints struct {
	points []Point
	keys   []string
}

// keyPoints derives every point's store key and deduplicates by it —
// not by Point value, so two spellings of the same simulation (e.g.
// Fig. 19's TH_threat=32 column versus Fig. 9's default-threat points)
// collapse into one entry, the first spelling's.
func (r *Runner) keyPoints(points []Point) (keyedPoints, error) {
	seen := make(map[string]bool, len(points))
	var out keyedPoints
	for _, p := range points {
		key, err := r.PointKey(p)
		if err != nil {
			return keyedPoints{}, fmt.Errorf("exp: keying %v: %w", p, err)
		}
		if !seen[key] {
			seen[key] = true
			out.points = append(out.points, p)
			out.keys = append(out.keys, key)
		}
	}
	return out, nil
}

// executedPoint is the outcome of getOrSimulate.
type executedPoint struct {
	Key     string          // the store key, derived from the very config and mixes that ran
	Results []sim.MixResult // one result per workload mix
	Cached  bool            // served from the store without simulating
	Elapsed time.Duration   // simulation wall-clock (the recorded timing when cached)
}

// getOrSimulate serves one explicit configuration from the store or
// simulates and persists it, recording the simulation's wall-clock in
// the store's raw namespace for ETA estimation. Every point simulation
// the harness runs goes through here, from consumeOne alone. It takes no
// claim: exclusivity is the caller's lease on the point.
func (r *Runner) getOrSimulate(ctx context.Context, cfg sim.Config, mixes []workload.Mix) (executedPoint, error) {
	key, err := results.Key(cfg, mixes)
	if err != nil {
		return executedPoint{}, err
	}
	if rs, ok := r.store.Get(key); ok {
		d, _ := r.store.Elapsed(key)
		return executedPoint{Key: key, Results: rs, Cached: true, Elapsed: d}, nil
	}
	if err := ctx.Err(); err != nil {
		return executedPoint{}, err
	}
	start := time.Now()
	rs, err := sim.RunMixes(cfg, mixes)
	if err != nil {
		return executedPoint{}, err
	}
	elapsed := time.Since(start)
	atomic.AddInt64(&r.executed, 1)
	if err := r.store.Put(key, rs); err != nil {
		return executedPoint{}, err
	}
	if err := r.store.RecordElapsed(key, elapsed); err != nil {
		return executedPoint{}, err
	}
	return executedPoint{Key: key, Results: rs, Elapsed: elapsed}, nil
}

// ratioGeomean returns the geometric mean over mixes of metric(with)/
// metric(base).
func ratioGeomean(with, base []sim.MixResult, metric func(sim.MixResult) float64) float64 {
	var ratios []float64
	for i := range with {
		b := metric(base[i])
		if b == 0 {
			continue
		}
		ratios = append(ratios, metric(with[i])/b)
	}
	return stats.GeoMean(ratios)
}

// groupRatioGeomean splits mixes by group name (prefix before '-') and
// returns per-group geomeans plus the overall geomean, in group order.
func groupRatioGeomean(with, base []sim.MixResult, metric func(sim.MixResult) float64) (groups []string, values []float64, overall float64) {
	order := []string{}
	byGroup := map[string][]float64{}
	var all []float64
	for i := range with {
		g := groupOf(with[i].MixName)
		b := metric(base[i])
		if b == 0 {
			continue
		}
		v := metric(with[i]) / b
		if _, seen := byGroup[g]; !seen {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], v)
		all = append(all, v)
	}
	for _, g := range order {
		groups = append(groups, g)
		values = append(values, stats.GeoMean(byGroup[g]))
	}
	return groups, values, stats.GeoMean(all)
}

// groupOf returns a mix's group: the name's prefix before '-'.
func groupOf(mixName string) string {
	group, _, _ := strings.Cut(mixName, "-")
	return group
}
