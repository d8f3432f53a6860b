//! Per-layer metrics for the traced run (`--trace 1`).
//!
//! [`LAYERS`] is the fixed table of per-layer metrics with the end-to-end
//! metric and workload each should move. A workload fills the ones it
//! exercises from its own calls; the isolated probes below time single
//! public functions on inputs cut from the workload's own data. A metric
//! a workload does not exercise is printed as 0 and labelled so.

use std::collections::BTreeMap;
use std::hint::black_box;

use gothic::nbody::kernel::{accumulate, Source};
use gothic::nbody::{ParticleSet, Real, Vec3};
use gothic::octree::{
    build_tree_with_positions, calc_node, morton_keys, walk_tree, BuildConfig, Octree, WalkConfig,
};
use gothic::telemetry;
use gothic::{price_step, RunConfig, StepEvents};
use server::{parse_request, Request, ResultCache};

use crate::stats::median;
use crate::{timed, Outcome, Workload};

/// (name, unit, end-to-end metric and workload it should move).
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("nbody.flush_int_per_s", "1/s", "throughput_per_s (force_m31, blockstep_m31), latency_ms_p50 (service_mix); not latency_ms_p50 (service_hits)"),
    ("walk.calls", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.busy_s", "s", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.interactions", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.mac_evals", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.list_pushes", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.flushes", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.opens", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.int_per_s", "1/s", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.mac_per_s", "1/s", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.int_per_sink", "count", "throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.open_frac", "ratio", "opens per MAC test, the wasted-work ratio; throughput_per_s (force_m31, blockstep_m31)"),
    ("walk.nonkernel_frac", "ratio", "estimate, 1 - interactions/(flush_int_per_s*pool_threads)/busy_s; throughput_per_s (force_m31, blockstep_m31)"),
    ("calc.busy_ms", "ms", "latency_ms_p50 (blockstep_m31); force_m31 only through setup_s"),
    ("calc.nodes", "count", "latency_ms_p50 (blockstep_m31); force_m31 only through setup_s"),
    ("calc.nodes_per_s", "1/s", "latency_ms_p50 (blockstep_m31); force_m31 only through setup_s"),
    ("calc.levels", "count", "latency_ms_p50 (blockstep_m31); force_m31 only through setup_s"),
    ("tree.build_ms", "ms", "setup_s (all), throughput_per_s (blockstep_m31) through rebuild steps"),
    ("tree.nodes_created", "count", "setup_s (all), throughput_per_s (blockstep_m31) through rebuild steps"),
    ("morton.keys_per_s", "1/s", "setup_s (all), throughput_per_s (blockstep_m31) through rebuild steps"),
    ("sort.pairs_per_s", "1/s", "setup_s (all), throughput_per_s (blockstep_m31) through rebuild steps"),
    ("galaxy.sample_s", "s", "setup_s (all)"),
    ("phase.predict_ms", "ms", "latency_ms_p50 (blockstep_m31)"),
    ("phase.make_tree_ms", "ms", "throughput_per_s (blockstep_m31)"),
    ("phase.calc_node_ms", "ms", "latency_ms_p50 (blockstep_m31)"),
    ("phase.walk_tree_ms", "ms", "throughput_per_s (blockstep_m31)"),
    ("phase.correct_ms", "ms", "latency_ms_p50 (blockstep_m31)"),
    ("phase.unattributed_ms", "ms", "latency_ms_p50 (blockstep_m31); step wall minus the five phases, leaf-bmax scan and pricing included"),
    ("pipeline.active_frac", "ratio", "latency_ms_p50 (blockstep_m31)"),
    ("pipeline.rebuilds", "count", "throughput_per_s (blockstep_m31)"),
    ("model.price_step_us", "us", "latency_ms_p50 (blockstep_m31); throughput_per_s (service_mix)"),
    ("model.predict_us", "us", "throughput_per_s (service_mix)"),
    ("simt.racecheck_ms", "ms", "throughput_per_s (service_mix)"),
    ("pool.walk_speedup_2t", "ratio", "throughput_per_s (force_m31); latency_ms_p50 (blockstep_m31)"),
    ("pool.calc_speedup_2t", "ratio", "throughput_per_s (force_m31); latency_ms_p50 (blockstep_m31)"),
    ("pool.steals", "count", "throughput_per_s (force_m31); latency_ms_p50 (blockstep_m31)"),
    ("server.job_ms_p50", "ms", "latency_ms_p50 (service_mix)"),
    ("server.queue_transport_ms", "ms", "latency_ms_p50 (service_mix); miss p50 minus server.job_ms_p50"),
    ("server.parse_us", "us", "latency_ms_p50 (service_hits), throughput_per_s (service_mix)"),
    ("server.cache_get_us", "us", "latency_ms_p50 (service_hits), throughput_per_s (service_mix)"),
    ("server.hit_ratio", "ratio", "throughput_per_s (service_mix)"),
    ("server.rejected_busy", "count", "throughput_per_s (service_mix)"),
    ("server.deadline_exceeded", "count", "throughput_per_s (service_mix)"),
    ("server.predict_ms_p50", "ms", "throughput_per_s (service_mix)"),
    ("server.racecheck_ms_p50", "ms", "throughput_per_s (service_mix)"),
    ("server.hist_p50_ms", "ms", "server-side log2-histogram p50 of all requests, shown beside server.client_p50_ms; never a latency metric"),
    ("server.client_p50_ms", "ms", "client-side p50 of all requests, shown beside server.hist_p50_ms"),
    ("server.counter_bleed_frac", "ratio", "share of miss payloads whose pipeline.steps counter differs from the steps asked (known cross-job bleed); not counted as failed"),
    ("accuracy.force_err_p99", "ratio", "p99 relative force error, tree vs direct, 1024 seeded sinks (force_m31); gated by a pinned ceiling, moved by MAC or kernel changes"),
    ("accuracy.energy_drift", "ratio", "|dE/E| after 256 steps (blockstep_m31), median over miss payloads (service_mix); gated by a pinned ceiling"),
    ("telemetry.overhead_frac", "ratio", "every end-to-end metric; traced over untraced time of this workload's unit operation, minus 1"),
    ("telemetry.spans", "count", "every end-to-end metric; program spans recorded in the traced window"),
];

/// Per-layer values of one traced run.
#[derive(Default)]
pub(crate) struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Record `name` (must be in [`LAYERS`]) with the samples behind it.
    pub(crate) fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, (value, samples));
    }

    /// Emit every per-layer metric, in table order, into `out`.
    pub(crate) fn finish(self, w: Workload, out: &mut Outcome) {
        for &(name, unit, moves) in LAYERS {
            match self.values.get(name) {
                Some(&(v, n)) => out.push(name, v, unit, n, moves),
                None => out.push(
                    name,
                    0.0,
                    unit,
                    0,
                    &format!("not exercised by {}; {moves}", w.name()),
                ),
            }
        }
    }

    /// Walk counters from the events of `calls` walk_tree calls that kept
    /// the pool busy for `busy_s` seconds.
    pub(crate) fn walk(&mut self, ev: &gothic::gpu_model::WalkEvents, calls: usize, busy_s: f64) {
        let f = |x: u64| x as f64;
        self.set("walk.calls", calls as f64, calls);
        self.set("walk.busy_s", busy_s, calls);
        self.set("walk.interactions", f(ev.interactions), calls);
        self.set("walk.mac_evals", f(ev.mac_evals), calls);
        self.set("walk.list_pushes", f(ev.list_pushes), calls);
        self.set("walk.flushes", f(ev.flushes), calls);
        self.set("walk.opens", f(ev.opens), calls);
        self.set("walk.int_per_s", f(ev.interactions) / busy_s, calls);
        self.set("walk.mac_per_s", f(ev.mac_evals) / busy_s, calls);
        self.set(
            "walk.int_per_sink",
            f(ev.interactions) / f(ev.sinks.max(1)),
            calls,
        );
        self.set(
            "walk.open_frac",
            f(ev.opens) / f(ev.mac_evals.max(1)),
            calls,
        );
    }

    /// `walk.nonkernel_frac`, an estimate: the share of walk busy time
    /// not explained by the isolated flush rate on every pool thread.
    pub(crate) fn nonkernel_estimate(&mut self) {
        let get = |k: &str| self.values.get(k).map(|v| v.0);
        if let (Some(int), Some(busy), Some(rate)) = (
            get("walk.interactions"),
            get("walk.busy_s"),
            get("nbody.flush_int_per_s"),
        ) {
            let kernel_s = int / (rate * parallel::current_threads() as f64);
            self.set("walk.nonkernel_frac", 1.0 - kernel_s / busy, 1);
        }
    }
}

/// Median seconds per call of `f` over `rounds` timing rounds of `reps`
/// calls each.
pub(crate) fn per_call_s(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..rounds)
        .map(|_| {
            timed(|| {
                for _ in 0..reps {
                    f();
                }
            })
            .1 / reps as f64
        })
        .collect();
    median(&secs)
}

/// Isolated Eq. 1 flush: 32 Morton-adjacent sinks against 256 sources
/// (evenly strided particles), the interaction-list shape of one warp.
pub(crate) fn flush_tile(layers: &mut Layers, pos: &[Vec3], mass: &[Real], eps2: Real) {
    let n = pos.len();
    assert!(n >= 512, "tile needs at least 512 particles");
    let sinks: Vec<Vec3> = pos[n / 2..n / 2 + 32].to_vec();
    let stride = n / 256;
    let sources: Vec<Source> = (0..256)
        .map(|k| Source {
            pos: pos[k * stride],
            mass: mass[k * stride],
        })
        .collect();
    let reps = 200;
    let s = per_call_s(7, reps, || {
        for &p in &sinks {
            black_box(accumulate(black_box(p), black_box(&sources), eps2));
        }
    });
    layers.set("nbody.flush_int_per_s", (32 * 256) as f64 / s, 7);
}

/// Morton keys, radix sort, tree build, calcNode and the calcNode pool
/// speed-up on an unsorted particle set (the workload's own initial
/// conditions).
pub(crate) fn construction(layers: &mut Layers, ps: &ParticleSet, leaf_cap: u32) {
    let n = ps.len() as f64;
    let cube = gothic::nbody::Aabb::from_points(&ps.pos).bounding_cube();
    let keys = morton_keys(&ps.pos, &cube);
    let s = per_call_s(5, 1, || {
        black_box(morton_keys(black_box(&ps.pos), &cube));
    });
    layers.set("morton.keys_per_s", n / s, 5);
    let s = per_call_s(5, 1, || {
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..keys.len() as u32).collect();
        devsort::sort_pairs(&mut k, &mut v);
        black_box((k, v));
    });
    layers.set("sort.pairs_per_s", n / s, 5);

    let cfg = BuildConfig { leaf_cap };
    let mut builds = Vec::new();
    let mut tree = None;
    for _ in 0..3 {
        let mut p = ps.clone();
        let pos = p.pos.clone();
        let ((t, _perm), s) = timed(|| build_tree_with_positions(&mut p, &pos, &cfg));
        builds.push(s);
        tree = Some((t, p));
    }
    let (mut tree, sorted) = tree.expect("three builds ran");
    layers.set("tree.build_ms", median(&builds) * 1e3, 3);
    layers.set("tree.nodes_created", tree.events.nodes_created as f64, 1);

    let mut nodes = 0;
    let s2 = per_call_s(5, 1, || {
        nodes = calc_node(&mut tree, &sorted.pos, &sorted.mass).nodes
    });
    let s1 = parallel::with_thread_count(1, || {
        per_call_s(5, 1, || {
            black_box(calc_node(&mut tree, &sorted.pos, &sorted.mass));
        })
    });
    layers.set("calc.busy_ms", s2 * 1e3, 5);
    layers.set("calc.nodes", nodes as f64, 1);
    layers.set("calc.nodes_per_s", nodes as f64 / s2, 5);
    layers.set("calc.levels", tree.n_levels() as f64, 1);
    layers.set("pool.calc_speedup_2t", s1 / s2, 5);
}

/// walk_tree at 1 thread against the default pool on the same sinks.
pub(crate) fn walk_speedup(
    layers: &mut Layers,
    tree: &Octree,
    pos: &[Vec3],
    mass: &[Real],
    acc_old: &[Real],
    sinks: &[u32],
    cfg: &WalkConfig,
) {
    let run = || {
        black_box(walk_tree(tree, pos, mass, acc_old, sinks, cfg));
    };
    let s2 = per_call_s(3, 1, run);
    let s1 = parallel::with_thread_count(1, || per_call_s(3, 1, run));
    layers.set("pool.walk_speedup_2t", s1 / s2, 3);
}

/// gpu-model pricing, the predict endpoint, and a Pascal racecheck sweep.
pub(crate) fn model(layers: &mut Layers, events: &StepEvents) {
    let cfg = RunConfig::default();
    let s = per_call_s(5, 200, || {
        black_box(price_step(
            black_box(events),
            &cfg.arch,
            cfg.mode,
            cfg.barrier,
        ));
    });
    layers.set("model.price_step_us", s * 1e6, 5);
    let job = match parse_request(r#"{"type":"predict","n":1048576}"#) {
        Ok((_, Request::Predict(j))) => j,
        other => panic!("predict request must parse: {other:?}"),
    };
    let s = per_call_s(5, 200, || {
        black_box(server::jobs::run_predict(black_box(&job)));
    });
    layers.set("model.predict_us", s * 1e6, 5);
    let s = per_call_s(3, 1, || {
        black_box(server::jobs::run_racecheck(false));
    });
    layers.set("simt.racecheck_ms", s * 1e3, 3);
}

/// Request parsing and a cache hit on a full default-size cache.
pub(crate) fn server_calls(layers: &mut Layers) {
    let line = r#"{"type":"simulate","model":"plummer","n":2048,"steps":4,"seed":12345}"#;
    let s = per_call_s(5, 2000, || {
        black_box(parse_request(black_box(line)).is_ok());
    });
    layers.set("server.parse_us", s * 1e6, 5);
    let payload = "x".repeat(600);
    let mut cache = ResultCache::new(64);
    for k in 0..64u64 {
        cache.insert(k, payload.clone());
    }
    let mut k = 0u64;
    let s = per_call_s(5, 2000, || {
        k = (k + 17) % 64;
        black_box(cache.get(black_box(k)));
    });
    layers.set("server.cache_get_us", s * 1e6, 5);
}

/// Traced/untraced time of `op` minus 1: alternates program telemetry
/// (spans into the installed sink, counters) off and on.
pub(crate) fn telemetry_overhead(layers: &mut Layers, mut op: impl FnMut()) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        telemetry::disable_all();
        off.push(timed(&mut op).1);
        telemetry::enable_all();
        on.push(timed(&mut op).1);
    }
    layers.set(
        "telemetry.overhead_frac",
        median(&on) / median(&off) - 1.0,
        5,
    );
}

/// Count the program spans the memory sink collected since the last
/// drain, returning the summed duration per span name in seconds.
pub(crate) fn drain_spans(layers: &mut Layers) -> BTreeMap<String, (usize, f64)> {
    let mut by_name: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    let mut spans = 0usize;
    for line in telemetry::sink::drain_memory() {
        let Ok(v) = telemetry::json::parse(&line) else {
            continue;
        };
        if v.get("type").and_then(|t| t.as_str()) != Some("span") {
            continue;
        }
        spans += 1;
        let name = v
            .get("name")
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string();
        let dur = v.get("dur_ns").and_then(|x| x.as_f64()).unwrap_or(0.0) * 1e-9;
        let e = by_name.entry(name).or_default();
        e.0 += 1;
        e.1 += dur;
    }
    layers.set("telemetry.spans", spans as f64, 1);
    by_name
}
