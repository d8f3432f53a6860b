//! `blockstep_m31`: block time steps of the M31 model with the default
//! run configuration (auto rebuild). The measured unit is a segment of
//! [`STEPS`] steps from the same initial state; segments repeat until
//! `--seconds` have passed, and each must end bit-identical to the first.
//!
//! How many particles a step activates depends on the deepest occupied
//! time-step level, which one realization sets by a handful of particles:
//! the full step-time distribution therefore differs several-fold between
//! seeds. The end-to-end figures are the ones that do not: force updates
//! per second of stepping, and the per-step latency outside the phases
//! that scale with the active set (walkTree and correct): predict,
//! calcNode, the leaf-bmax scan and pricing, which every step pays over
//! all particles.

use gothic::galaxy::M31Model;
use gothic::octree::WalkConfig;
use gothic::telemetry;
use gothic::{Gothic, RunConfig, StepReport};

use crate::probes::{self, Layers};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, timed, Args, Gate, Outcome, Workload};

/// Particles in the M31 sample.
pub(crate) const N: usize = 1 << 16;
/// Block steps per segment.
pub(crate) const STEPS: usize = 256;
/// Segments per run at least. Every replay repeats the same steps, so
/// each step's latency is its minimum over replays: scheduling noise
/// from the host (thread spawns in the pool) only ever adds time.
pub(crate) const MIN_REPLAYS: usize = 2;
/// Ceiling on |dE/E| after [`STEPS`] steps, pinned at the benchmark's
/// first commit: seeds 1..=10 measured 2.0e-5 ..= 2.7e-4, and the drift
/// varies so much between realizations that the ceiling sits near four
/// times the largest.
pub(crate) const DRIFT_CEILING: f64 = 1e-3;

/// Sample the model and initialise the pipeline.
pub fn setup(n: usize, seed: u64) -> Gothic {
    Gothic::new(
        M31Model::paper_model().sample(n, seed),
        RunConfig::default(),
    )
}

/// One segment: per-step reports and outside wall times, and the
/// relative energy drift at its end.
pub struct Segment {
    pub reports: Vec<StepReport>,
    pub step_s: Vec<f64>,
    pub drift: f64,
    pub state_bits: Vec<u32>,
    pub invariants: Result<(), String>,
}

pub fn run_segment(mut sim: Gothic, steps: usize) -> (Segment, Gothic) {
    let e0 = sim.diagnostics();
    let mut reports = Vec::with_capacity(steps);
    let mut step_s = Vec::with_capacity(steps);
    for _ in 0..steps {
        let (r, s) = timed(|| sim.step());
        reports.push(r);
        step_s.push(s);
    }
    let drift = sim.diagnostics().relative_energy_drift(&e0);
    let invariants = sim
        .blocks
        .check_invariants()
        .and_then(|_| sim.ps.check_invariants());
    let state_bits = sim
        .ps
        .pos
        .iter()
        .chain(&sim.ps.vel)
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect();
    let seg = Segment {
        reports,
        step_s,
        drift,
        state_bits,
        invariants,
    };
    (seg, sim)
}

/// The drift gate against the pinned ceiling.
pub(crate) fn drift_gate(drift: f64) -> Gate {
    Gate::new(
        "energy_drift",
        drift.is_finite() && drift <= DRIFT_CEILING,
        format!("|dE/E| {drift:.3e} vs ceiling {DRIFT_CEILING:e} after {STEPS} steps"),
    )
}

pub(crate) fn run(args: &Args) -> Outcome {
    let w = Workload::BlockstepM31;
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    if args.trace {
        telemetry::sink::init_trace_memory();
    }

    let mut setups = Vec::new();
    let mut next = None;
    for _ in 0..3 {
        drop(next.take());
        let (s, t) = timed(|| setup(N, args.seed));
        setups.push(t);
        next = Some(s);
    }
    let steals0 = telemetry::metrics::counters::POOL_STEALS.value();

    let t0 = std::time::Instant::now();
    let mut segments: Vec<Segment> = Vec::new();
    let mut last = None;
    while segments.len() < MIN_REPLAYS || t0.elapsed().as_secs_f64() < args.seconds {
        drop(last.take());
        let sim = next.take().unwrap_or_else(|| setup(N, args.seed));
        let (seg, end) = run_segment(sim, STEPS);
        segments.push(seg);
        last = Some(end);
    }
    let sim = last.expect("one segment ran");
    let first = &segments[0];
    out.attempted = (segments.len() * STEPS) as u64;
    out.gates.push(Gate::new(
        "invariants",
        segments.iter().all(|s| s.invariants.is_ok()),
        match &first.invariants {
            Ok(()) => "BlockSteps and ParticleSet invariants hold".to_string(),
            Err(e) => e.clone(),
        },
    ));
    out.gates.push(Gate::new(
        "repeat_bit_identical",
        segments.iter().all(|s| s.state_bits == first.state_bits),
        format!("{} segments", segments.len()),
    ));
    out.gates.push(drift_gate(first.drift));

    let steps: Vec<(&StepReport, f64)> = segments
        .iter()
        .flat_map(|s| s.reports.iter().zip(s.step_s.iter().copied()))
        .collect();
    let busy: f64 = steps.iter().map(|s| s.1).sum();
    let updates: usize = steps.iter().map(|s| s.0.n_active).sum();
    let overhead: Vec<f64> = (0..STEPS)
        .filter(|&i| !first.reports[i].rebuilt)
        .map(|i| {
            segments
                .iter()
                .map(|s| s.step_s[i] - s.reports[i].wall.walk_tree - s.reports[i].wall.correct)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    if !args.trace {
        out.e2e(w, "setup_s", median(&setups), "s", setups.len());
        out.e2e(w, "peak_rss_mb", peak_rss_mb(), "MiB", 1);
        out.e2e(
            w,
            "throughput_per_s",
            updates as f64 / busy,
            "1/s",
            steps.len(),
        );
        out.e2e(
            w,
            "latency_ms_p50",
            median(&overhead) * 1e3,
            "ms",
            overhead.len(),
        );
        out.e2e(
            w,
            "latency_ms_p90",
            quantile(&overhead, 0.9) * 1e3,
            "ms",
            overhead.len(),
        );
        return out;
    }

    let n_steps = steps.len();
    let mut walk = gothic::gpu_model::WalkEvents::default();
    let mut wall = gothic::WallTimes::default();
    let mut rebuilds = 0usize;
    let mut calc_nodes = 0u64;
    for (r, _) in &steps {
        walk.merge(&r.events.walk);
        wall.add(&r.wall);
        rebuilds += r.rebuilt as usize;
        calc_nodes += r.events.calc.nodes;
    }
    layers.set("accuracy.energy_drift", first.drift, 1);
    layers.walk(&walk, n_steps, wall.walk_tree);
    let per_step_ms = |s: f64| s / n_steps as f64 * 1e3;
    layers.set("phase.predict_ms", per_step_ms(wall.predict), n_steps);
    layers.set("phase.make_tree_ms", per_step_ms(wall.make_tree), n_steps);
    layers.set("phase.calc_node_ms", per_step_ms(wall.calc_node), n_steps);
    layers.set("phase.walk_tree_ms", per_step_ms(wall.walk_tree), n_steps);
    layers.set("phase.correct_ms", per_step_ms(wall.correct), n_steps);
    layers.set(
        "phase.unattributed_ms",
        per_step_ms(busy - wall.total()),
        n_steps,
    );
    layers.set(
        "pipeline.active_frac",
        updates as f64 / (n_steps * N) as f64,
        n_steps,
    );
    layers.set("pipeline.rebuilds", rebuilds as f64, segments.len());

    let ps = &sim.ps;
    let eps2 = sim.cfg.eps * sim.cfg.eps;
    probes::flush_tile(&mut layers, &ps.pos, &ps.mass, eps2);
    layers.nonkernel_estimate();
    let (ic, sample_s) = timed(|| M31Model::paper_model().sample(N, args.seed));
    layers.set("galaxy.sample_s", sample_s, 1);
    probes::construction(&mut layers, &ic, sim.cfg.leaf_cap);
    // calcNode as the pipeline ran it, per step, replaces the probe's.
    layers.set("calc.busy_ms", per_step_ms(wall.calc_node), n_steps);
    layers.set("calc.nodes", calc_nodes as f64 / n_steps as f64, n_steps);
    layers.set(
        "calc.nodes_per_s",
        calc_nodes as f64 / wall.calc_node,
        n_steps,
    );
    let cfg = WalkConfig {
        mac: sim.cfg.mac,
        eps2,
        list_cap: sim.cfg.list_cap,
        ..WalkConfig::default()
    };
    let sinks: Vec<u32> = (0..N as u32 / 4).collect();
    probes::walk_speedup(
        &mut layers,
        sim.tree(),
        &ps.pos,
        &ps.mass,
        &ps.acc_old,
        &sinks,
        &cfg,
    );
    probes::model(&mut layers, &first.reports[0].events);
    probes::server_calls(&mut layers);
    let steals = telemetry::metrics::counters::POOL_STEALS.value() - steals0;
    layers.set("pool.steals", steals as f64, 1);
    probes::drain_spans(&mut layers);
    probes::telemetry_overhead(&mut layers, || {
        gothic::octree::walk_tree(sim.tree(), &ps.pos, &ps.mass, &ps.acc_old, &sinks, &cfg);
    });
    telemetry::sink::shutdown();
    layers.finish(w, &mut out);
    out
}
