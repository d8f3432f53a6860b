//! Job execution: the work behind `simulate`, `predict`, and
//! `racecheck` requests, decoupled from sockets and queues so it can be
//! tested directly.

use std::sync::OnceLock;

use gothic::galaxy::{plummer_model, M31Model};
use gothic::telemetry::json::JsonObject;
use gothic::{price_step, CancelReason, CancelToken, Function, Gothic, Profile, StepEvents};

use crate::protocol::{PredictJob, SimJob};

/// Why a job produced no result payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The deadline passed; `steps_done` block steps had completed.
    DeadlineExceeded { steps_done: u64 },
    /// The run was cancelled (drain or client gone).
    Cancelled { steps_done: u64 },
}

/// JSON keys for the Table-2 breakdown: the paper's camelCase kernel
/// names (`Function::name` uses spaced display names for the figures).
fn function_key(f: Function) -> &'static str {
    match f {
        Function::WalkTree => "walkTree",
        Function::CalcNode => "calcNode",
        Function::MakeTree => "makeTree",
        Function::Predict => "predict",
        Function::Correct => "correct",
    }
}

fn sample(model: &str, n: usize, seed: u64) -> gothic::nbody::ParticleSet {
    match model {
        "m31" => M31Model::paper_model().sample(n, seed),
        // protocol::parse_request only admits the two models; default to
        // Plummer for direct callers.
        _ => plummer_model(n, 100.0, 1.0, seed),
    }
}

/// Run the GOTHIC pipeline for a request and render the result payload.
///
/// Cancellation is cooperative at block-step boundaries: a fired token
/// stops the run before the next step and reports how many completed.
/// The initial-condition sampling and bootstrap force evaluation run
/// before the first check, so the floor on a cancelled request's cost is
/// one bootstrap, not zero.
///
/// Telemetry counters are reported by snapshot-and-delta: the
/// process-wide registry is sampled before and after the run and the
/// payload carries only the differences. This avoids resetting the
/// registry, which would zero the daemon-lifetime totals the `metrics`
/// request exposes, and it keeps earlier jobs' work out of the payload.
/// It is exact only while one job runs at a time. The registry is
/// global, so with two or more workers every job that overlaps this one
/// adds its counts to this payload's `counters` too (perfbench's
/// `server.counter_bleed_frac` reads about 1.0 on a two-worker daemon).
/// Per-run telemetry scopes that fix this are ROADMAP open item 3.
pub fn run_simulate(job: &SimJob, token: &CancelToken) -> Result<String, JobError> {
    let ctr_before = gothic::telemetry::metrics::snapshot();
    let ps = sample(&job.model, job.n, job.seed);
    let mut sim = Gothic::new(ps, job.cfg.clone());
    let e0 = sim.diagnostics();
    let reports = match sim.run_cancellable(job.steps, token) {
        Ok(r) => r,
        Err(c) => {
            let steps_done = c.completed.len() as u64;
            return Err(match c.cancelled.reason {
                CancelReason::DeadlineExceeded => JobError::DeadlineExceeded { steps_done },
                CancelReason::Requested => JobError::Cancelled { steps_done },
            });
        }
    };
    let e1 = sim.diagnostics();

    let mut total = Profile::default();
    let mut wall = 0.0;
    let mut rebuilds = 0u64;
    for r in &reports {
        total.add(&r.profile);
        wall += r.wall.total();
        rebuilds += r.rebuilt as u64;
    }
    let steps = reports.len().max(1) as f64;

    // The Table-2 breakdown: modeled seconds per step for each of the
    // five representative kernels on the requested architecture.
    let mut breakdown = JsonObject::new();
    for f in Function::ALL {
        breakdown.f64(function_key(f), total.get(f).seconds / steps);
    }

    let mut o = JsonObject::new();
    o.str("model", &job.model)
        .u64("n", job.n as u64)
        .u64("steps", reports.len() as u64)
        .u64("seed", job.seed)
        .u64("rebuilds", rebuilds)
        .f64("t_final", sim.time())
        .f64("e_initial", e0.total_energy())
        .f64("e_final", e1.total_energy())
        .f64("energy_drift", e1.relative_energy_drift(&e0))
        .str("arch", job.cfg.arch.name)
        .f64("model_seconds_per_step", total.total_seconds() / steps)
        .raw("breakdown", &breakdown.finish())
        .f64("wall_seconds", wall);

    // Per-job counter deltas (only counters this job actually moved).
    // Zero when metrics collection is disabled process-wide.
    let ctr_after = gothic::telemetry::metrics::snapshot();
    let mut counters = JsonObject::new();
    for ((name, before), (_, after)) in ctr_before.iter().zip(ctr_after.iter()) {
        let delta = after.wrapping_sub(*before);
        if delta > 0 {
            counters.u64(name, delta);
        }
    }
    o.raw("counters", &counters.finish());
    Ok(o.finish())
}

/// The reference step the GPU-model-only `predict` endpoint scales from:
/// one rebuild step of a small fiducial Plummer run, computed once per
/// process. ~10 ms to produce, then every predict is pure arithmetic.
fn baseline_events() -> &'static (u64, StepEvents) {
    static BASELINE: OnceLock<(u64, StepEvents)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        const BASE_N: usize = 2048;
        let ps = plummer_model(BASE_N, 100.0, 1.0, 42);
        let mut sim = Gothic::new(ps, gothic::RunConfig::default());
        let r = sim.step(); // the first step always builds the tree
        debug_assert!(r.events.make.is_some());
        (BASE_N as u64, r.events)
    })
}

/// Price one rebuild block step at the requested N on the requested
/// architecture/mode — the cheap endpoint: no particles are integrated,
/// only the performance model runs.
pub fn run_predict(job: &PredictJob) -> String {
    let (base_n, ev) = baseline_events();
    let scaled = ev.scaled_to(*base_n, job.n as u64);
    let profile = price_step(&scaled, &job.cfg.arch, job.cfg.mode, job.cfg.barrier);
    let mut breakdown = JsonObject::new();
    for f in Function::ALL {
        breakdown.f64(function_key(f), profile.get(f).seconds);
    }
    let mut o = JsonObject::new();
    o.u64("n", job.n as u64)
        .str("arch", job.cfg.arch.name)
        .str(
            "mode",
            match job.cfg.mode {
                gothic::gpu_model::ExecMode::PascalMode => "pascal",
                gothic::gpu_model::ExecMode::VoltaMode => "volta",
            },
        )
        .f64("model_seconds_per_step", profile.total_seconds())
        .raw("breakdown", &breakdown.finish())
        .u64("interactions", scaled.walk.interactions);
    o.finish()
}

/// A quick happens-before sweep of the interpreter kernels (a subset of
/// the `gothic_sim --racecheck` preflight, sized for a service request).
pub fn run_racecheck(volta: bool) -> String {
    use gothic::simt::{microbench, Scheduler};
    let scheds: &[Scheduler] = if volta {
        &[Scheduler::Lockstep, Scheduler::Independent]
    } else {
        &[Scheduler::Lockstep]
    };
    let mut runs = 0u64;
    let mut hazards = 0u64;
    let mut wrong = 0u64;
    let mut tally = |correct: bool, total: u64| {
        runs += 1;
        hazards += total;
        wrong += (!correct) as u64;
    };
    for &sched in scheds {
        for ttot in [128usize, 256] {
            for tsub in [4u32, 8, 32] {
                let (b, rep) = microbench::run_reduction_racechecked(ttot, tsub, volta, sched);
                tally(b.correct, rep.total);
                let (b, rep) = microbench::run_scan_racechecked(ttot, tsub, volta, sched);
                tally(b.correct, rep.total);
            }
        }
        let (b, rep) = microbench::run_gravity_flush_racechecked(32, 1e-4, sched);
        tally(b.correct, rep.total);
    }
    let mut o = JsonObject::new();
    o.str("mode", if volta { "volta" } else { "pascal" })
        .u64("runs", runs)
        .u64("hazards", hazards)
        .u64("wrong_results", wrong)
        .bool("clean", hazards == 0 && wrong == 0);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use gothic::telemetry::json::parse;

    fn sim_job(line: &str) -> SimJob {
        match parse_request(line).unwrap().1 {
            Request::Simulate(j) => j,
            other => panic!("expected simulate, got {other:?}"),
        }
    }

    #[test]
    fn simulate_payload_has_energies_and_the_table2_breakdown() {
        let job = sim_job(r#"{"type":"simulate","model":"plummer","n":1024,"steps":3,"seed":5}"#);
        let payload = run_simulate(&job, &CancelToken::new()).unwrap();
        let v = parse(&payload).unwrap();
        assert_eq!(v.get("steps").unwrap().as_u64(), Some(3));
        assert!(
            v.get("e_initial").unwrap().as_f64().unwrap() < 0.0,
            "bound system"
        );
        let bd = v.get("breakdown").unwrap();
        for k in ["walkTree", "calcNode", "makeTree", "predict", "correct"] {
            assert!(bd.get(k).is_some(), "breakdown must include {k}");
        }
        assert!(
            v.get("model_seconds_per_step").unwrap().as_f64().unwrap() > 0.0,
            "modeled time must be positive"
        );
    }

    #[test]
    fn simulate_respects_an_expired_deadline() {
        let job = sim_job(r#"{"type":"simulate","model":"plummer","n":1024,"steps":64}"#);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match run_simulate(&job, &token) {
            Err(JobError::DeadlineExceeded { steps_done }) => assert_eq!(steps_done, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn identical_jobs_render_identical_payloads() {
        // The cache contract: digest equality implies the *results* are
        // interchangeable. Everything but the measured wall clock and the
        // per-job counter deltas (which record what this particular run
        // cost, and can be perturbed by concurrent test activity when
        // metrics are enabled) must be bit-identical.
        let a = sim_job(r#"{"type":"simulate","n":512,"steps":2,"seed":3}"#);
        let b = sim_job(r#"{"steps":2,"seed":3,"n":512,"type":"simulate"}"#);
        assert_eq!(a.digest(), b.digest());
        let strip_wall = |payload: &str| {
            let v = parse(payload).unwrap();
            let mut m = v.as_obj().unwrap().clone();
            assert!(m.remove("wall_seconds").is_some());
            assert!(m.remove("counters").is_some());
            m
        };
        let pa = run_simulate(&a, &CancelToken::new()).unwrap();
        let pb = run_simulate(&b, &CancelToken::new()).unwrap();
        assert_eq!(strip_wall(&pa), strip_wall(&pb));
    }

    #[test]
    fn predict_is_cheap_and_scales_with_n() {
        let pj = |n: u64| match parse_request(&format!(r#"{{"type":"predict","n":{n}}}"#))
            .unwrap()
            .1
        {
            Request::Predict(j) => j,
            other => panic!("expected predict, got {other:?}"),
        };
        let small = parse(&run_predict(&pj(1 << 14))).unwrap();
        let large = parse(&run_predict(&pj(1 << 20))).unwrap();
        let ts = small
            .get("model_seconds_per_step")
            .unwrap()
            .as_f64()
            .unwrap();
        let tl = large
            .get("model_seconds_per_step")
            .unwrap()
            .as_f64()
            .unwrap();
        // 64x the particles costs clearly more, though sublinearly at
        // these sizes: the GPU model credits larger grids with better SM
        // utilization.
        assert!(
            tl > ts * 2.0,
            "64x the particles must cost more: {ts} vs {tl}"
        );
    }

    #[test]
    fn racecheck_sweep_is_clean_in_both_modes() {
        for volta in [false, true] {
            let v = parse(&run_racecheck(volta)).unwrap();
            assert_eq!(v.get("clean").unwrap().as_bool(), Some(true));
            assert!(v.get("runs").unwrap().as_u64().unwrap() > 0);
        }
    }
}
