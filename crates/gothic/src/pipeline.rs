//! The GOTHIC simulation pipeline.
//!
//! One *block step* executes the paper's five representative functions in
//! order (§2.2):
//!
//! 1. `predict` — drift every particle to the new time (sources must be
//!    current even when inactive),
//! 2. `makeTree` — Morton keys + radix sort + linked rebuild, but only
//!    when the rebuild policy fires (GOTHIC auto-tunes the interval to
//!    minimise gravity + construction time, §4.1),
//! 3. `calcNode` — bottom-up centre-of-mass/mass/size refresh (every
//!    step: the tree topology ages between rebuilds, the node summaries
//!    do not),
//! 4. `walkTree` — MAC-driven traversal with warp-group interaction
//!    lists, for the *active* particles of this block step,
//! 5. `correct` — finish the active particles' velocity updates and
//!    re-quantise their individual time steps.
//!
//! Every step records algorithm events and prices them on the configured
//! architecture (see [`crate::profile`]); the recorded events also let
//! the benchmark harness re-price the same run on every GPU of Fig. 1.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::{RebuildPolicy, RunConfig};
use crate::profile::{price_step, Function, Profile, StepEvents};
use gpu_model::IntegrateEvents;
use nbody::blockstep::BlockSteps;
use nbody::integrator::{predict_positions, timestep_criterion};
use nbody::{ParticleSet, Real, Vec3};
use octree::{
    build_tree_with_positions, calc_node, walk_tree, BuildConfig, Mac, Octree, WalkConfig,
};

/// Host wall-clock times of one step's phases (for the criterion
/// benches; independent of the modeled GPU times).
#[derive(Clone, Copy, Debug, Default)]
pub struct WallTimes {
    pub predict: f64,
    pub make_tree: f64,
    pub calc_node: f64,
    pub walk_tree: f64,
    pub correct: f64,
}

impl WallTimes {
    /// Wall time of one Table-2 function.
    pub fn get(&self, f: Function) -> f64 {
        match f {
            Function::WalkTree => self.walk_tree,
            Function::CalcNode => self.calc_node,
            Function::MakeTree => self.make_tree,
            Function::Predict => self.predict,
            Function::Correct => self.correct,
        }
    }

    /// Total wall time over all phases.
    pub fn total(&self) -> f64 {
        Function::ALL.iter().map(|&f| self.get(f)).sum()
    }

    /// Accumulate another step's phase times.
    pub fn add(&mut self, o: &WallTimes) {
        self.predict += o.predict;
        self.make_tree += o.make_tree;
        self.calc_node += o.calc_node;
        self.walk_tree += o.walk_tree;
        self.correct += o.correct;
    }
}

/// Emit one `{"type":"step"}` trace line summarising a completed block
/// step (modeled and measured seconds plus the headline event counts).
fn emit_step_event(r: &StepReport) {
    let mut o = telemetry::json::JsonObject::new();
    o.str("type", "step")
        .u64("step", r.step)
        .f64("t", r.time)
        .u64("n_active", r.n_active as u64)
        .bool("rebuilt", r.rebuilt)
        .f64("modeled_s", r.profile.total_seconds())
        .f64("wall_s", r.wall.total())
        .u64("interactions", r.events.walk.interactions)
        .u64("mac_evals", r.events.walk.mac_evals)
        .u64("tree_nodes", r.events.calc.nodes);
    telemetry::sink::emit(&o);
}

/// A cancellable run that stopped early: the cancellation cause plus
/// every step report completed before the stop.
#[derive(Clone, Debug)]
pub struct CancelledRun {
    pub cancelled: Cancelled,
    pub completed: Vec<StepReport>,
}

/// Outcome of one block step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step ordinal (1-based).
    pub step: u64,
    /// Simulation time after the step.
    pub time: f64,
    /// Number of active (force-updated) particles.
    pub n_active: usize,
    /// Whether the tree was rebuilt this step.
    pub rebuilt: bool,
    /// Algorithm events (architecture-independent).
    pub events: StepEvents,
    /// Modeled cost on the configured architecture/mode.
    pub profile: Profile,
    /// Host wall-clock phase times.
    pub wall: WallTimes,
}

/// Auto-tuner state for the tree-rebuild interval (§4.1): GOTHIC rebuilds
/// when the accumulated walk-time excess caused by tree ageing exceeds
/// the cost of a rebuild.
///
/// Ageing is measured physically: particles drift away from the cells
/// they were filed under, inflating the node bounding radii (`bmax`) that
/// `calcNode` refreshes each step — which makes the MAC open more cells
/// and the walk slow down. The tuner accumulates
/// `ageing × walk_seconds` per step (ageing = relative `bmax` inflation
/// since the fresh build) and rebuilds once that excess exceeds the
/// modeled rebuild cost. Expensive walks (tight Δacc) therefore rebuild
/// often, cheap walks rarely — the paper observes intervals of ~6 steps
/// at the highest accuracy and ~30 at the lowest.
#[derive(Clone, Debug, Default)]
struct RebuildTuner {
    /// Per-leaf bmax right after the last rebuild (leaf order is stable
    /// between rebuilds because the topology is frozen).
    fresh_leaf_bmax: Vec<f64>,
    /// Accumulated excess walk work (interaction-equivalents) since the
    /// last rebuild.
    excess: f64,
    /// Rebuild cost threshold in interaction-equivalents.
    threshold: f64,
}

/// Cost of one tree rebuild expressed in gravity interactions per
/// particle: on V100 the modeled makeTree time equals the time of ≈25
/// interactions per particle, independent of N (both scale linearly).
const REBUILD_COST_INTERACTIONS_PER_PARTICLE: f64 = 25.0;

impl RebuildTuner {
    /// Record one step's walk work and the tree's current ageing metric:
    /// the mean relative inflation of the leaf bounding radii since the
    /// fresh build (leaf bloat is what makes the MAC open more cells).
    fn record_walk(&mut self, interactions: u64, leaf_bmax: &[f64]) {
        if self.fresh_leaf_bmax.is_empty() {
            self.fresh_leaf_bmax = leaf_bmax.to_vec();
            return;
        }
        let mut ageing = 0.0;
        let mut counted = 0usize;
        for (now, fresh) in leaf_bmax.iter().zip(&self.fresh_leaf_bmax) {
            if *fresh > 0.0 {
                ageing += (now / fresh - 1.0).max(0.0);
                counted += 1;
            }
        }
        if counted > 0 {
            self.excess += ageing / counted as f64 * interactions as f64;
        }
    }

    fn record_build(&mut self, n_particles: usize) {
        self.threshold = REBUILD_COST_INTERACTIONS_PER_PARTICLE * n_particles as f64;
        self.fresh_leaf_bmax.clear();
        self.excess = 0.0;
    }

    fn should_rebuild(&self) -> bool {
        self.excess > self.threshold && self.threshold > 0.0
    }
}

/// The simulation driver.
pub struct Gothic {
    pub cfg: RunConfig,
    /// Particle state, kept in the Morton order of the latest rebuild.
    pub ps: ParticleSet,
    /// Block time-step hierarchy.
    pub blocks: BlockSteps,
    tree: Octree,
    pred_pos: Vec<Vec3>,
    steps_since_rebuild: u32,
    tuner: RebuildTuner,
    /// Completed block steps.
    pub step_count: u64,
}

impl Gothic {
    /// Initialise: build the tree, evaluate the bootstrap forces with the
    /// opening-angle MAC (the acceleration MAC of Eq. 2 needs |a| from a
    /// previous step), and seed the block time-step hierarchy.
    pub fn new(mut ps: ParticleSet, cfg: RunConfig) -> Self {
        assert!(!ps.is_empty());
        let n = ps.len();
        let mut blocks = BlockSteps::new(n, cfg.dt_max, cfg.max_depth);

        let positions = ps.pos.clone();
        let (mut tree, perm) = build_tree_with_positions(
            &mut ps,
            &positions,
            &BuildConfig {
                leaf_cap: cfg.leaf_cap,
            },
        );
        blocks.permute(&perm);
        calc_node(&mut tree, &ps.pos, &ps.mass);

        // Bootstrap forces: geometric MAC, every particle active.
        let walk_cfg = WalkConfig {
            mac: Mac::OpeningAngle {
                theta: cfg.theta_bootstrap,
            },
            eps2: cfg.eps * cfg.eps,
            list_cap: cfg.list_cap,
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let ones = vec![1.0 as Real; n];
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &ones, &active, &walk_cfg);
        for (k, &i) in active.iter().enumerate() {
            ps.acc[i as usize] = res.acc[k];
            ps.pot[i as usize] = res.pot[k];
        }
        ps.stash_acc_magnitudes();

        // Seed individual time steps from the bootstrap accelerations.
        for i in 0..n {
            let dt = timestep_criterion(cfg.eta, cfg.eps, ps.acc[i], cfg.dt_max);
            blocks.level[i] = blocks.level_for_dt(dt);
        }

        let pred_pos = ps.pos.clone();
        Gothic {
            cfg,
            ps,
            blocks,
            tree,
            pred_pos,
            steps_since_rebuild: 0,
            tuner: RebuildTuner::default(),
            step_count: 0,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.ps.len()
    }

    /// True when no particles are held.
    pub fn is_empty(&self) -> bool {
        self.ps.is_empty()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.blocks.time()
    }

    /// Immutable view of the current tree.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Steps since the last tree rebuild.
    pub fn tree_age(&self) -> u32 {
        self.steps_since_rebuild
    }

    /// Restore the simulation clock (snapshot restart): sets the global
    /// tick so that `time()` equals `time`, re-synchronises every
    /// particle to it, and restores the step counter.
    pub fn set_clock(&mut self, time: f64, step: u64) {
        let ticks =
            (time / self.blocks.dt_max as f64 * self.blocks.ticks_per_dtmax as f64).round() as u64;
        self.blocks.tick = ticks;
        for i in 0..self.blocks.len() {
            self.blocks.ptick[i] = ticks;
            // A particle's time must sit on its own block boundary; deepen
            // the level until the restored tick is aligned.
            while !ticks.is_multiple_of(self.blocks.ticks_of_level(self.blocks.level[i])) {
                self.blocks.level[i] += 1;
                assert!(
                    (self.blocks.level[i] as u32) <= self.blocks.max_depth,
                    "snapshot time is not representable on the block grid"
                );
            }
        }
        self.step_count = step;
        debug_assert!(self.blocks.check_invariants().is_ok());
    }

    /// Execute one block step.
    pub fn step(&mut self) -> StepReport {
        let step_t0 = std::time::Instant::now();
        let step_span = telemetry::span("step");
        let n = self.len();
        let eps2 = self.cfg.eps * self.cfg.eps;
        let mut events = StepEvents::default();
        let mut wall = WallTimes::default();

        // --- begin block step ------------------------------------------
        let (mut active, mut drift) = self.blocks.begin_step();

        // --- predict -----------------------------------------------------
        let span = telemetry::span(Function::Predict.name());
        let t0 = std::time::Instant::now();
        predict_positions(&self.ps, &drift, &mut self.pred_pos);
        wall.predict = t0.elapsed().as_secs_f64();
        drop(span);
        events.predict = IntegrateEvents {
            particles: n as u64,
        };

        // --- makeTree (policy-dependent) ----------------------------------
        let due = match self.cfg.rebuild {
            RebuildPolicy::Auto => self.tuner.should_rebuild(),
            RebuildPolicy::Fixed(k) => self.steps_since_rebuild >= k.max(1),
        };
        // The very first step always (re)builds: it prices makeTree once
        // and seeds the auto-tuner's build-cost reference.
        let rebuild = self.step_count == 0 || due;
        let rebuilt = if rebuild {
            let _span = telemetry::span(Function::MakeTree.name());
            let t0 = std::time::Instant::now();
            let pred = self.pred_pos.clone();
            let (tree, perm) = build_tree_with_positions(
                &mut self.ps,
                &pred,
                &BuildConfig {
                    leaf_cap: self.cfg.leaf_cap,
                },
            );
            self.tree = tree;
            self.blocks.permute(&perm);
            // Reorder this step's per-particle arrays consistently.
            active = perm.iter().map(|&p| active[p as usize]).collect();
            drift = perm.iter().map(|&p| drift[p as usize]).collect();
            self.pred_pos = perm.iter().map(|&p| pred[p as usize]).collect();
            wall.make_tree = t0.elapsed().as_secs_f64();
            events.make = Some(self.tree.events);
            self.steps_since_rebuild = 0;
            true
        } else {
            false
        };

        // --- calcNode ------------------------------------------------------
        let span = telemetry::span(Function::CalcNode.name());
        let t0 = std::time::Instant::now();
        events.calc = calc_node(&mut self.tree, &self.pred_pos, &self.ps.mass);
        wall.calc_node = t0.elapsed().as_secs_f64();
        drop(span);

        // --- walkTree ------------------------------------------------------
        let active_idx: Vec<u32> = (0..n as u32).filter(|&i| active[i as usize]).collect();
        let walk_cfg = WalkConfig {
            mac: self.cfg.mac,
            eps2,
            list_cap: self.cfg.list_cap,
        };
        let span = telemetry::span(Function::WalkTree.name());
        let t0 = std::time::Instant::now();
        let res = walk_tree(
            &self.tree,
            &self.pred_pos,
            &self.ps.mass,
            &self.ps.acc_old,
            &active_idx,
            &walk_cfg,
        );
        wall.walk_tree = t0.elapsed().as_secs_f64();
        drop(span);
        events.walk = res.events;

        // --- correct -------------------------------------------------------
        let span = telemetry::span(Function::Correct.name());
        let t0 = std::time::Instant::now();
        let mut dt_want = vec![self.cfg.dt_max; n];
        for (k, &i) in active_idx.iter().enumerate() {
            let i = i as usize;
            let a_new = res.acc[k];
            let h = drift[i];
            self.ps.vel[i] = self.ps.vel[i] + (self.ps.acc[i] + a_new) * (0.5 * h);
            self.ps.pos[i] = self.pred_pos[i];
            self.ps.acc[i] = a_new;
            self.ps.pot[i] = res.pot[k];
            self.ps.acc_old[i] = a_new.norm();
            dt_want[i] = timestep_criterion(self.cfg.eta, self.cfg.eps, a_new, self.cfg.dt_max);
        }
        self.blocks.end_step(&active, &dt_want);
        wall.correct = t0.elapsed().as_secs_f64();
        drop(span);
        // The corrector is inlined here (block bookkeeping interleaves),
        // so the kernel counter is bumped here too.
        telemetry::metrics::counters::CORRECT_PARTICLES.add(active_idx.len() as u64);
        events.correct = IntegrateEvents {
            particles: active_idx.len() as u64,
        };

        // --- price + tune ---------------------------------------------------
        let profile = price_step(&events, &self.cfg.arch, self.cfg.mode, self.cfg.barrier);
        if rebuilt {
            self.tuner.record_build(n);
        }
        let leaf_bmax: Vec<f64> = (0..self.tree.n_nodes())
            .filter(|&v| self.tree.is_leaf(v))
            .map(|v| self.tree.bmax[v] as f64)
            .collect();
        self.tuner.record_walk(events.walk.interactions, &leaf_bmax);

        self.steps_since_rebuild += 1;
        self.step_count += 1;
        drop(step_span);

        {
            use telemetry::metrics::counters as tm;
            tm::PIPELINE_STEPS.add(1);
            tm::PIPELINE_ACTIVE_PARTICLES.add(active_idx.len() as u64);
            if rebuilt {
                tm::PIPELINE_REBUILDS.add(1);
            }
            // Priced syncwarp executions — the modeled nvprof count for
            // this step's kernels (nonzero only in the Volta mode).
            let syncwarps: u64 = Function::ALL
                .iter()
                .map(|&f| profile.get(f).ops.sync_warp)
                .sum();
            tm::MODEL_SYNCWARPS.add(syncwarps);
            telemetry::metrics::histograms::STEP_WALL_NS.record_duration(step_t0.elapsed());
        }

        let report = StepReport {
            step: self.step_count,
            time: self.time(),
            n_active: active_idx.len(),
            rebuilt,
            events,
            profile,
            wall,
        };
        if telemetry::sink::trace_active() {
            emit_step_event(&report);
        }
        report
    }

    /// Run `n_steps` block steps, returning all step reports.
    pub fn run(&mut self, n_steps: u64) -> Vec<StepReport> {
        (0..n_steps).map(|_| self.step()).collect()
    }

    /// Run up to `n_steps` block steps under a cancellation token.
    ///
    /// The token is checked at every block-step boundary (before each
    /// step) — the pipeline's cooperative preemption points. On
    /// cancellation the already-completed step reports come back with
    /// the reason, so a serving layer can report partial progress; the
    /// simulation state itself stays valid and can be resumed.
    pub fn run_cancellable(
        &mut self,
        n_steps: u64,
        token: &CancelToken,
    ) -> Result<Vec<StepReport>, CancelledRun> {
        let mut reports = Vec::new();
        for _ in 0..n_steps {
            if let Err(cancelled) = token.check() {
                return Err(CancelledRun {
                    cancelled,
                    completed: reports,
                });
            }
            reports.push(self.step());
        }
        Ok(reports)
    }

    /// Conservation diagnostics at the current state. Forces must be
    /// fresh for the potential to be meaningful; this is the case right
    /// after construction and after any step for the active subset (the
    /// stored `pot` of inactive particles lags slightly, as in GOTHIC).
    pub fn diagnostics(&self) -> nbody::energy::Diagnostics {
        nbody::energy::measure(&self.ps, self.cfg.eps * self.cfg.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy::plummer_model;

    fn small_run(delta_acc: f32, n: usize, steps: u64) -> (Gothic, Vec<StepReport>) {
        let ps = plummer_model(n, 100.0, 1.0, 42);
        let cfg = RunConfig {
            mac: Mac::Acceleration { delta_acc },
            eps: 0.02,
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim.run(steps);
        (sim, reports)
    }

    #[test]
    fn bootstrap_gives_finite_forces_and_levels() {
        let ps = plummer_model(1024, 100.0, 1.0, 1);
        let sim = Gothic::new(ps, RunConfig::default());
        assert!(sim.ps.acc.iter().all(|a| a.is_finite()));
        assert!(sim.ps.acc_old.iter().all(|&a| a > 0.0));
        sim.blocks.check_invariants().unwrap();
    }

    #[test]
    fn steps_advance_time_monotonically() {
        let (sim, reports) = small_run(2.0f32.powi(-6), 1024, 8);
        let mut last = 0.0;
        for r in &reports {
            assert!(r.time > last);
            last = r.time;
        }
        assert!(sim.time() > 0.0);
        sim.blocks.check_invariants().unwrap();
    }

    #[test]
    fn first_step_rebuilds_then_interval_grows() {
        let (_, reports) = small_run(2.0f32.powi(-9), 2048, 12);
        assert!(reports[0].rebuilt, "step 1 must build the tree");
        let rebuilds: usize = reports.iter().filter(|r| r.rebuilt).count();
        assert!(rebuilds < reports.len(), "not every step may rebuild");
    }

    #[test]
    fn active_counts_vary_with_block_hierarchy() {
        let (_, reports) = small_run(2.0f32.powi(-9), 4096, 16);
        let counts: Vec<usize> = reports.iter().map(|r| r.n_active).collect();
        // The hierarchy puts the tightly-bound centre on small steps:
        // some steps must touch far fewer particles than N.
        assert!(counts.iter().any(|&c| c < 4096), "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn energy_is_conserved_over_a_dynamical_stretch() {
        let ps = plummer_model(2048, 100.0, 1.0, 7);
        let cfg = RunConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-9),
            },
            eps: 0.02,
            dt_max: 1.0 / 128.0,
            eta: 0.2,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let e0 = sim.diagnostics();
        // Advance many block steps (the hierarchy advances unevenly; use
        // the simulation clock to bound the integration stretch).
        for _ in 0..200 {
            sim.step();
            if sim.time() > 0.25 {
                break;
            }
        }
        // Re-evaluate all forces for a clean potential: cheap trick —
        // diagnostics on the live state; block-step potential lag is part
        // of the measured error budget.
        let e1 = sim.diagnostics();
        let drift = e1.relative_energy_drift(&e0);
        assert!(drift < 5e-3, "relative energy drift {drift}");
    }

    #[test]
    fn fixed_rebuild_policy_rebuilds_on_schedule() {
        let ps = plummer_model(1024, 100.0, 1.0, 3);
        let cfg = RunConfig {
            rebuild: RebuildPolicy::Fixed(4),
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim.run(12);
        let pattern: Vec<bool> = reports.iter().map(|r| r.rebuilt).collect();
        // Step 1 builds; thereafter every 4th.
        assert!(pattern[0]);
        for (i, &r) in pattern.iter().enumerate().skip(1) {
            assert_eq!(r, (i % 4) == 0, "step {} pattern {pattern:?}", i + 1);
        }
    }

    #[test]
    fn tighter_accuracy_costs_more_interactions() {
        let (_, loose) = small_run(0.25, 2048, 6);
        let (_, tight) = small_run(2.0f32.powi(-14), 2048, 6);
        let li: u64 = loose.iter().map(|r| r.events.walk.interactions).sum();
        let ti: u64 = tight.iter().map(|r| r.events.walk.interactions).sum();
        assert!(ti > li, "tight {ti} vs loose {li}");
    }

    #[test]
    fn morton_order_is_maintained_for_ids() {
        let (sim, _) = small_run(2.0f32.powi(-9), 2048, 5);
        sim.ps.check_invariants().unwrap();
    }

    #[test]
    fn run_cancellable_with_idle_token_matches_run() {
        let ps = plummer_model(1024, 100.0, 1.0, 9);
        let cfg = RunConfig {
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        let reports = sim
            .run_cancellable(6, &crate::cancel::CancelToken::new())
            .expect("idle token never cancels");
        assert_eq!(reports.len(), 6);
        assert_eq!(sim.step_count, 6);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_step() {
        let ps = plummer_model(1024, 100.0, 1.0, 9);
        let mut sim = Gothic::new(ps, RunConfig::default());
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let err = sim.run_cancellable(8, &token).unwrap_err();
        assert_eq!(err.cancelled.reason, crate::cancel::CancelReason::Requested);
        assert!(err.completed.is_empty());
        assert_eq!(sim.step_count, 0, "no step may run after cancellation");
    }

    #[test]
    fn expired_deadline_cancels_mid_run_with_partial_reports() {
        let ps = plummer_model(1024, 100.0, 1.0, 11);
        let cfg = RunConfig {
            dt_max: 1.0 / 64.0,
            ..RunConfig::default()
        };
        let mut sim = Gothic::new(ps, cfg);
        // Generous budget for a couple of steps, far too small for 10⁶:
        // the deadline check at some step boundary must fire, and the
        // completed prefix comes back.
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::from_millis(50));
        let err = sim.run_cancellable(1_000_000, &token).unwrap_err();
        assert_eq!(
            err.cancelled.reason,
            crate::cancel::CancelReason::DeadlineExceeded
        );
        assert!((err.completed.len() as u64) < 1_000_000);
        assert_eq!(sim.step_count, err.completed.len() as u64);
        // The simulation state is still valid and resumable.
        sim.step();
        sim.blocks.check_invariants().unwrap();
    }
}
