//! `force_m31`: repeated all-active force evaluations of the M31 model.
//!
//! Set-up reproduces what `Gothic::new` does (sample, build, calcNode,
//! theta=0.7 bootstrap walk for |a_old|); the measured loop then walks
//! every sink with the acceleration MAC at dacc=2^-9, in 128 walk_tree
//! calls of 2048 sinks, so each evaluation yields 128 latency samples.

use gothic::galaxy::M31Model;
use gothic::gpu_model::WalkEvents;
use gothic::nbody::direct::direct_parallel;
use gothic::nbody::kernel::Source;
use gothic::nbody::{Real, Vec3};
use gothic::octree::{walk_tree, WalkConfig, WARP_SIZE};
use gothic::telemetry;
use gothic::{Gothic, RunConfig};
use prng::{Rng, StdRng};

use crate::probes::{self, Layers};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, timed, Args, Gate, Outcome, Workload};

/// Particles in the M31 sample.
pub(crate) const N: usize = 1 << 18;
/// Seeded sinks compared against direct summation (>= 1000, so ten lie
/// beyond the p99).
pub(crate) const ERR_SINKS: usize = 1024;
/// Ceiling on the p99 relative force error, pinned at the benchmark's
/// first commit: seeds 1..=10 measured 9.7e-4 ..= 1.33e-3, and the
/// ceiling sits near twice the largest so that no seed trips it.
pub(crate) const ERR_P99_CEILING: f64 = 2.5e-3;

/// Everything the measured loop needs, built by [`setup`].
pub struct Inputs {
    pub sim: Gothic,
    pub cfg: WalkConfig,
}

/// Sample the model and bootstrap it exactly as `Gothic::new` does.
pub fn setup(n: usize, seed: u64) -> Inputs {
    let run_cfg = RunConfig::with_delta_acc(2f32.powi(-9));
    let cfg = WalkConfig {
        mac: run_cfg.mac,
        eps2: run_cfg.eps * run_cfg.eps,
        list_cap: run_cfg.list_cap,
        ..WalkConfig::default()
    };
    let ps = M31Model::paper_model().sample(n, seed);
    Inputs {
        sim: Gothic::new(ps, run_cfg),
        cfg,
    }
}

/// Walk calls per evaluation.
pub(crate) const BATCHES: usize = 128;

/// Split `n` sinks into [`BATCHES`] walk_tree calls. Batch `b` takes
/// every `BATCHES`-th 32-sink warp group starting at group `b`, so each
/// call samples the whole galaxy and the calls cost alike; within a
/// call, ids ascend and each group stays Morton-contiguous.
pub fn batches(n: usize) -> Vec<Vec<u32>> {
    let groups = n.div_ceil(WARP_SIZE);
    (0..BATCHES)
        .map(|b| {
            (b..groups)
                .step_by(BATCHES)
                .flat_map(|g| (g * WARP_SIZE..((g + 1) * WARP_SIZE).min(n)).map(|i| i as u32))
                .collect()
        })
        .collect()
}

/// One evaluation: forces and potentials indexed by particle (zero for
/// particles not walked), events, and the wall time of each call.
pub struct Evaluation {
    pub acc: Vec<Vec3>,
    pub pot: Vec<Real>,
    pub events: WalkEvents,
    pub batch_s: Vec<f64>,
}

impl Evaluation {
    /// Forces and potentials of `ids` as raw bits, for exact comparison.
    pub fn bits(&self, ids: impl Iterator<Item = u32>) -> Vec<u32> {
        ids.flat_map(|i| {
            let (a, p) = (self.acc[i as usize], self.pot[i as usize]);
            [a.x.to_bits(), a.y.to_bits(), a.z.to_bits(), p.to_bits()]
        })
        .collect()
    }
}

/// One walk_tree call per batch.
pub fn evaluate(inp: &Inputs, batches: &[Vec<u32>]) -> Evaluation {
    let ps = &inp.sim.ps;
    let mut e = Evaluation {
        acc: vec![Vec3::ZERO; ps.len()],
        pot: vec![0.0; ps.len()],
        events: WalkEvents::default(),
        batch_s: Vec::with_capacity(batches.len()),
    };
    for batch in batches {
        let (r, s) = timed(|| {
            walk_tree(
                inp.sim.tree(),
                &ps.pos,
                &ps.mass,
                &ps.acc_old,
                batch,
                &inp.cfg,
            )
        });
        for (k, &i) in batch.iter().enumerate() {
            e.acc[i as usize] = r.acc[k];
            e.pot[i as usize] = r.pot[k];
        }
        e.events.merge(&r.events);
        e.batch_s.push(s);
    }
    e
}

/// Relative acceleration error |a_tree - a_direct| / |a_direct| of the
/// sinks `idx`, against direct summation over every particle.
pub fn force_errors(inp: &Inputs, acc: &[Vec3], idx: &[usize]) -> Vec<f64> {
    let ps = &inp.sim.ps;
    let sources: Vec<Source> = ps
        .pos
        .iter()
        .zip(&ps.mass)
        .map(|(&pos, &mass)| Source { pos, mass })
        .collect();
    let sinks: Vec<Vec3> = idx.iter().map(|&i| ps.pos[i]).collect();
    let (direct, _) = direct_parallel(&sinks, &sources, inp.cfg.eps2);
    idx.iter()
        .zip(&direct)
        .map(|(&i, d)| (acc[i] - *d).norm() as f64 / d.norm() as f64)
        .collect()
}

/// Seeded sinks for the error probe.
pub fn error_sinks(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f0ce);
    (0..ERR_SINKS).map(|_| rng.random_range(0..n)).collect()
}

/// The accuracy gate: p99 relative error against the pinned ceiling.
pub fn error_gate(errors: &[f64]) -> (f64, Gate) {
    let p99 = quantile(errors, 0.99);
    let pass = p99.is_finite() && p99 <= ERR_P99_CEILING;
    let detail = format!(
        "p99 {p99:.6} vs ceiling {ERR_P99_CEILING} over {} sinks",
        errors.len()
    );
    (p99, Gate::new("force_err_p99", pass, detail))
}

pub(crate) fn run(args: &Args) -> Outcome {
    let w = Workload::ForceM31;
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    if args.trace {
        telemetry::sink::init_trace_memory();
    }

    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..3 {
        drop(inp.take());
        let (i, s) = timed(|| setup(N, args.seed));
        setups.push(s);
        inp = Some(i);
    }
    let inp = inp.expect("three set-ups ran");
    let all = batches(N);
    let steals0 = telemetry::metrics::counters::POOL_STEALS.value();

    // Measured window: whole evaluations until --seconds have passed.
    // Only the first evaluation's forces are kept; later ones must match
    // it bit for bit. Every evaluation repeats the same calls, so a call's
    // latency is its minimum over evaluations: host scheduling noise only
    // ever adds time.
    let t0 = std::time::Instant::now();
    let first = evaluate(&inp, &all);
    let first_bits = first.bits(0..N as u32);
    let mut best = first.batch_s.clone();
    let mut busy_s: f64 = best.iter().sum();
    let mut events = first.events;
    let (mut evals, mut repeats_match) = (1usize, true);
    while t0.elapsed().as_secs_f64() < args.seconds {
        let e = evaluate(&inp, &all);
        repeats_match &= e.bits(0..N as u32) == first_bits;
        for (b, s) in best.iter_mut().zip(&e.batch_s) {
            *b = b.min(*s);
        }
        busy_s += e.batch_s.iter().sum::<f64>();
        events.merge(&e.events);
        evals += 1;
    }
    out.attempted = (evals * BATCHES) as u64;
    out.gates.push(Gate::new(
        "repeat_bit_identical",
        repeats_match,
        format!("{evals} evaluations"),
    ));

    // Gates: 1 thread against the default pool on every fourth batch, and
    // tree against direct summation.
    let sub: Vec<Vec<u32>> = all.iter().step_by(4).cloned().collect();
    let sub_ids = || sub.iter().flatten().copied();
    let one = parallel::with_thread_count(1, || evaluate(&inp, &sub));
    out.gates.push(Gate::new(
        "threads_bit_identical",
        one.bits(sub_ids()) == first.bits(sub_ids()),
        format!(
            "{} sinks at 1 vs {} threads",
            sub_ids().count(),
            parallel::current_threads()
        ),
    ));
    let errors = force_errors(&inp, &first.acc, &error_sinks(N, args.seed));
    let (p99, gate) = error_gate(&errors);
    out.gates.push(gate);

    if !args.trace {
        out.e2e(w, "setup_s", median(&setups), "s", setups.len());
        out.e2e(w, "peak_rss_mb", peak_rss_mb(), "MiB", 1);
        out.e2e(
            w,
            "throughput_per_s",
            (evals * N) as f64 / busy_s,
            "1/s",
            evals,
        );
        out.e2e(w, "latency_ms_p50", median(&best) * 1e3, "ms", best.len());
        out.e2e(
            w,
            "latency_ms_p90",
            quantile(&best, 0.9) * 1e3,
            "ms",
            best.len(),
        );
        return out;
    }

    layers.set("accuracy.force_err_p99", p99, errors.len());
    layers.walk(&events, evals * BATCHES, busy_s);
    let ps = &inp.sim.ps;
    probes::flush_tile(&mut layers, &ps.pos, &ps.mass, inp.cfg.eps2);
    layers.nonkernel_estimate();
    let (ic, sample_s) = timed(|| M31Model::paper_model().sample(N, args.seed));
    layers.set("galaxy.sample_s", sample_s, 1);
    probes::construction(&mut layers, &ic, inp.sim.cfg.leaf_cap);
    let probe_sinks = &all[..4];
    let speedup_sinks: Vec<u32> = all[..4].concat();
    probes::walk_speedup(
        &mut layers,
        inp.sim.tree(),
        &ps.pos,
        &ps.mass,
        &ps.acc_old,
        &speedup_sinks,
        &inp.cfg,
    );
    let step = gothic::StepEvents {
        walk: first.events,
        ..Default::default()
    };
    probes::model(&mut layers, &step);
    probes::server_calls(&mut layers);
    let steals = telemetry::metrics::counters::POOL_STEALS.value() - steals0;
    layers.set("pool.steals", steals as f64, 1);
    probes::drain_spans(&mut layers);
    probes::telemetry_overhead(&mut layers, || {
        evaluate(&inp, probe_sinks);
    });
    telemetry::sink::shutdown();
    layers.finish(w, &mut out);
    out
}
