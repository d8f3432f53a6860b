//! `service_mix` and `service_hits`: an in-process gothicd with the
//! default `ServerConfig` (2 workers, queue of 8, cache of 64) driven by
//! 2 closed-loop connections from this process: each client sends its
//! next request only after the previous reply. Every latency is the
//! client's own per-request duration.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gothic::galaxy::plummer_model;
use gothic::telemetry::json::{parse, Value};
use gothic::telemetry::{self, metrics::histograms};
use gothic::{CancelToken, Gothic, RunConfig};
use prng::{Rng, StdRng};
use server::{parse_request, Request, Server, ServerConfig};

use crate::probes::{self, Layers};
use crate::stats::{median, quantile};
use crate::{peak_rss_mb, timed, Args, Gate, Outcome, Workload};

/// Which traffic the clients send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mix {
    /// 40% simulate misses, 40% hits, 10% predict, 10% racecheck.
    Mixed,
    /// Simulate hits only.
    HitsOnly,
}

/// Closed-loop connections.
pub(crate) const CLIENTS: usize = 2;
/// Hot configs computed during set-up.
pub(crate) const HOT: usize = 8;
/// Particles and steps of every simulate request.
pub(crate) const SIM_N: usize = 2048;
pub(crate) const SIM_STEPS: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;

/// Request classes, indexing [`Tally`] arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    Miss = 0,
    Hit = 1,
    Predict = 2,
    Racecheck = 3,
}

/// What the clients saw, per class. Latencies are kept raw (as f32
/// seconds, so the bookkeeping stays small beside the server's memory).
#[derive(Default)]
pub(crate) struct Tally {
    /// Latencies of requests answered `ok` that passed their check.
    pub secs: [Vec<f32>; 4],
    /// Requests that failed: an error reply (busy, deadline, ...) or a
    /// payload check.
    pub failed: [usize; 4],
    /// Misses whose `pipeline.steps` counter differs from the steps asked.
    pub bled: usize,
    /// Relative energy drift of each good miss payload.
    pub drifts: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        for c in 0..4 {
            self.secs[c].extend_from_slice(&o.secs[c]);
            self.failed[c] += o.failed[c];
        }
        self.bled += o.bled;
        self.drifts.extend_from_slice(&o.drifts);
    }

    pub(crate) fn ok(&self, c: Class) -> Vec<f64> {
        self.secs[c as usize].iter().map(|&s| s as f64).collect()
    }

    pub(crate) fn attempted(&self, c: Class) -> usize {
        self.secs[c as usize].len() + self.failed[c as usize]
    }
}

/// Simulate seeds: the hot configs take `base..base+HOT`; misses take
/// fresh seeds above them, interleaved by client. All stay below 2^53 so
/// they survive the JSON number round trip.
fn seed_base(seed: u64) -> u64 {
    (seed % 1_000_000) * 10_000_000
}

pub(crate) fn simulate_line(seed: u64) -> String {
    format!(
        r#"{{"type":"simulate","model":"plummer","n":{SIM_N},"steps":{SIM_STEPS},"seed":{seed}}}"#
    )
}

/// The `result` payload of a response line, byte for byte.
pub(crate) fn result_payload(response: &str) -> Option<&str> {
    let start = response.find(r#""result":"#)? + r#""result":"#.len();
    response.get(start..response.len().checked_sub(1)?)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to the in-process server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Conn { reader, writer }
    }

    /// Send one request line, wait for the reply, time the round trip.
    fn call(&mut self, line: &str) -> (String, f64) {
        let t0 = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send a request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read a reply");
        (resp.trim_end().to_string(), t0.elapsed().as_secs_f64())
    }
}

/// A started server with its hot payloads computed.
pub(crate) struct Setup {
    pub server: Server,
    pub hot: Vec<(u64, String)>,
}

/// Start the server, compute the hot configs, warm the predict baseline.
pub(crate) fn setup(seed: u64) -> Setup {
    let server = Server::start(ServerConfig::default()).expect("start the server");
    let mut conn = Conn::open(server.addr());
    let base = seed_base(seed);
    let hot = (0..HOT as u64)
        .map(|k| {
            let (resp, _) = conn.call(&simulate_line(base + k));
            let payload = result_payload(&resp)
                .filter(|_| resp.contains(r#""ok":true"#))
                .unwrap_or_else(|| panic!("hot config {k} failed: {resp}"));
            (base + k, payload.to_string())
        })
        .collect();
    conn.call(r#"{"type":"predict","n":1048576}"#);
    Setup { server, hot }
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Check one reply and record it.
fn record(t: &mut Tally, class: Class, resp: &str, secs: f64, hot_payload: Option<&str>) {
    let v = parse(resp)
        .ok()
        .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true));
    let cached = v.as_ref().and_then(|v| v.get("cached")?.as_bool());
    let good = v.as_ref().is_some_and(|v| match class {
        Class::Hit => cached == Some(true) && result_payload(resp) == hot_payload,
        Class::Miss => {
            let steps = field(v, &["result", "steps"]).and_then(Value::as_u64);
            let counted =
                field(v, &["result", "counters", "pipeline.steps"]).and_then(Value::as_u64);
            let drift = field(v, &["result", "energy_drift"]).and_then(Value::as_f64);
            let good = cached == Some(false)
                && steps == Some(SIM_STEPS)
                && drift.is_some_and(f64::is_finite);
            if good {
                t.bled += (counted != Some(SIM_STEPS)) as usize;
                t.drifts.extend(drift);
            }
            good
        }
        Class::Predict => field(v, &["result", "model_seconds_per_step"])
            .and_then(Value::as_f64)
            .is_some_and(|s| s.is_finite() && s > 0.0),
        Class::Racecheck => field(v, &["result", "clean"]).and_then(Value::as_bool) == Some(true),
    });
    if good {
        t.secs[class as usize].push(secs as f32);
    } else {
        t.failed[class as usize] += 1;
    }
}

/// One closed-loop client until `window` has passed.
fn client(
    addr: SocketAddr,
    mix: Mix,
    seed: u64,
    c: usize,
    hot: &[(u64, String)],
    start: &Barrier,
    window: Duration,
) -> Tally {
    let mut conn = Conn::open(addr);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ c as u64);
    let mut next_miss = seed_base(seed) + (HOT + c) as u64;
    let mut next_hot = c;
    let mut t = Tally::default();
    let mut deck: Vec<Class> = Vec::new();
    start.wait();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        // Each block of ten requests holds the mix exactly, in a seeded
        // order, so the share of each class does not vary between seeds.
        if deck.is_empty() {
            deck = match mix {
                Mix::HitsOnly => vec![Class::Hit; 10],
                Mix::Mixed => [[Class::Miss; 4], [Class::Hit; 4]]
                    .concat()
                    .into_iter()
                    .chain([Class::Predict, Class::Racecheck])
                    .collect(),
            };
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.random_range(0..i + 1));
            }
        }
        let class = deck.pop().expect("deck refilled above");
        let (line, hot_payload) = match class {
            Class::Miss => {
                next_miss += CLIENTS as u64;
                (simulate_line(next_miss - CLIENTS as u64), None)
            }
            Class::Hit => {
                // Round-robin over the hot set keeps every hot entry far
                // more recent than the 64-entry LRU horizon.
                let (seed, payload) = &hot[next_hot % HOT];
                next_hot += CLIENTS;
                (simulate_line(*seed), Some(payload.as_str()))
            }
            Class::Predict => {
                let n = 1u64 << rng.random_range(14..23u32);
                (format!(r#"{{"type":"predict","n":{n}}}"#), None)
            }
            Class::Racecheck => (r#"{"type":"racecheck","mode":"pascal"}"#.to_string(), None),
        };
        let (resp, secs) = conn.call(&line);
        record(&mut t, class, &resp, secs, hot_payload);
    }
    t
}

/// Counter deltas since `before`.
fn counters_since(before: &[(&'static str, u64)]) -> BTreeMap<&'static str, u64> {
    telemetry::metrics::snapshot()
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, b))| (name, after.wrapping_sub(*b)))
        .collect()
}

/// (accepted, rejected_busy, cache_hits, deadline_exceeded).
fn server_stats(server: &Server) -> [u64; 4] {
    let s = server.stats();
    [
        s.accepted.load(Relaxed),
        s.rejected_busy.load(Relaxed),
        s.cache_hits.load(Relaxed),
        s.deadline_exceeded.load(Relaxed),
    ]
}

pub(crate) fn run(args: &Args, mix: Mix) -> Outcome {
    let w = match mix {
        Mix::Mixed => Workload::ServiceMix,
        Mix::HitsOnly => Workload::ServiceHits,
    };
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    if args.trace {
        telemetry::sink::init_trace_memory();
    }

    let mut setups = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = ready.take() {
            prev.server.drain();
        }
        let (s, t) = timed(|| setup(args.seed));
        setups.push(t);
        ready = Some(s);
    }
    let Setup { server, hot } = ready.expect("set-ups ran");
    let addr = server.addr();
    let stats0 = server_stats(&server);
    let ctr0 = telemetry::metrics::snapshot();
    histograms::SERVE_REQUEST_NS.reset();
    telemetry::sink::drain_memory();

    let start = Barrier::new(CLIENTS + 1);
    let window = Duration::from_secs_f64(args.seconds);
    let (tally, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (hot, start) = (&hot, &start);
                scope.spawn(move || client(addr, mix, args.seed, c, hot, start, window))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let mut all = Tally::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        (all, t0.elapsed().as_secs_f64())
    });
    let stats = server_stats(&server);
    let ctr = counters_since(&ctr0);
    let hist_p50_ms = histograms::SERVE_REQUEST_NS.snapshot().quantile(0.5) as f64 / 1e6;
    server.drain();

    let classes = [Class::Miss, Class::Hit, Class::Predict, Class::Racecheck];
    let completed: usize = tally.secs.iter().map(Vec::len).sum();
    out.failed = tally.failed.iter().sum::<usize>() as u64;
    out.attempted = completed as u64 + out.failed;
    let mut gate = |name, class: Class, what: &str| {
        let bad = tally.failed[class as usize];
        let detail = format!("{bad} of {} {what}", tally.attempted(class));
        out.gates.push(Gate::new(name, bad == 0, detail));
    };
    gate(
        "hit_payload_byte_equal",
        Class::Hit,
        "hits not cached or not byte-equal to their miss payload",
    );
    if mix == Mix::Mixed {
        gate(
            "miss_payload",
            Class::Miss,
            "misses failed or returned a bad payload",
        );
        gate(
            "racecheck_clean",
            Class::Racecheck,
            "racechecks not clean:true",
        );
        gate(
            "predict_positive",
            Class::Predict,
            "predicts without finite positive seconds",
        );
    }
    let headline = tally.ok(match mix {
        Mix::Mixed => Class::Miss,
        Mix::HitsOnly => Class::Hit,
    });

    if !args.trace {
        out.e2e(w, "setup_s", median(&setups), "s", setups.len());
        out.e2e(w, "peak_rss_mb", peak_rss_mb(), "MiB", 1);
        out.e2e(
            w,
            "throughput_per_s",
            completed as f64 / elapsed,
            "1/s",
            completed,
        );
        out.e2e(
            w,
            "latency_ms_p50",
            median(&headline) * 1e3,
            "ms",
            headline.len(),
        );
        out.e2e(
            w,
            "latency_ms_p90",
            quantile(&headline, 0.9) * 1e3,
            "ms",
            headline.len(),
        );
        return out;
    }

    let all: Vec<f64> = classes.iter().flat_map(|&c| tally.ok(c)).collect();
    let accepted = ctr.get("server.accepted").copied().unwrap_or(0) as usize;
    layers.set("server.hist_p50_ms", hist_p50_ms, accepted);
    layers.set("server.client_p50_ms", median(&all) * 1e3, all.len());
    let sims = tally.attempted(Class::Hit) + tally.attempted(Class::Miss);
    layers.set(
        "server.hit_ratio",
        (stats[2] - stats0[2]) as f64 / sims as f64,
        sims,
    );
    layers.set(
        "server.rejected_busy",
        (stats[1] - stats0[1]) as f64,
        out.attempted as usize,
    );
    layers.set(
        "server.deadline_exceeded",
        (stats[3] - stats0[3]) as f64,
        out.attempted as usize,
    );
    for (name, class) in [
        ("server.predict_ms_p50", Class::Predict),
        ("server.racecheck_ms_p50", Class::Racecheck),
    ] {
        let v = tally.ok(class);
        if !v.is_empty() {
            layers.set(name, median(&v) * 1e3, v.len());
        }
    }
    let misses = tally.ok(Class::Miss);
    if !misses.is_empty() {
        layers.set(
            "server.counter_bleed_frac",
            tally.bled as f64 / misses.len() as f64,
            misses.len(),
        );
        layers.set(
            "accuracy.energy_drift",
            median(&tally.drifts),
            tally.drifts.len(),
        );
    }

    // Walk counters and program spans from the server's jobs.
    let spans = probes::drain_spans(&mut layers);
    let span_s = |name: &str| spans.get(name).map_or(0.0, |v| v.1);
    let c = |k: &str| ctr.get(k).copied().unwrap_or(0);
    let steps = c("pipeline.steps");
    if steps > 0 {
        let ev = gothic::gpu_model::WalkEvents {
            groups: c("walk.groups"),
            // Step walks plus the all-active bootstrap walk of each job.
            sinks: c("pipeline.active_particles") + (misses.len() * SIM_N) as u64,
            interactions: c("walk.interactions"),
            mac_evals: c("walk.mac_evals"),
            list_pushes: c("walk.list_pushes"),
            opens: c("walk.opens"),
            flushes: c("walk.flushes"),
            ..Default::default()
        };
        let calls = spans.get("walk tree").map_or(0, |v| v.0);
        layers.walk(&ev, calls, span_s("walk tree"));
        let per_step_ms = |s: f64| s / steps as f64 * 1e3;
        let phases = [
            ("phase.predict_ms", "predict"),
            ("phase.make_tree_ms", "make tree"),
            ("phase.calc_node_ms", "calc node"),
            ("phase.walk_tree_ms", "walk tree"),
            ("phase.correct_ms", "correct"),
        ];
        for (metric, span) in phases {
            layers.set(metric, per_step_ms(span_s(span)), steps as usize);
        }
        let attributed: f64 = phases.iter().map(|p| span_s(p.1)).sum();
        layers.set(
            "phase.unattributed_ms",
            per_step_ms(span_s("step") - attributed),
            steps as usize,
        );
        let active = c("pipeline.active_particles") as f64 / (steps * SIM_N as u64) as f64;
        layers.set("pipeline.active_frac", active, steps as usize);
        layers.set(
            "pipeline.rebuilds",
            c("pipeline.rebuilds") as f64,
            steps as usize,
        );
    }
    layers.set("pool.steals", c("pool.steals") as f64, 1);

    // Direct calls on the request shape the misses use.
    let job = match parse_request(&simulate_line(seed_base(args.seed) + 9_000_000)) {
        Ok((_, Request::Simulate(j))) => j,
        other => panic!("simulate request must parse: {other:?}"),
    };
    let run_job =
        || server::jobs::run_simulate(&job, &CancelToken::new()).expect("a direct job completes");
    let jobs: Vec<f64> = (0..15).map(|_| timed(run_job).1).collect();
    let job_ms = median(&jobs) * 1e3;
    layers.set("server.job_ms_p50", job_ms, jobs.len());
    if !misses.is_empty() {
        layers.set(
            "server.queue_transport_ms",
            median(&misses) * 1e3 - job_ms,
            misses.len(),
        );
    }
    let (ic, sample_s) = timed(|| plummer_model(SIM_N, 100.0, 1.0, args.seed));
    layers.set("galaxy.sample_s", sample_s, 1);
    probes::construction(&mut layers, &ic, RunConfig::default().leaf_cap);
    let mut sim = Gothic::new(ic, RunConfig::default());
    let eps2 = sim.cfg.eps * sim.cfg.eps;
    probes::flush_tile(&mut layers, &sim.ps.pos, &sim.ps.mass, eps2);
    if steps > 0 {
        layers.nonkernel_estimate();
    }
    let cfg = gothic::octree::WalkConfig {
        mac: sim.cfg.mac,
        eps2,
        list_cap: sim.cfg.list_cap,
        ..Default::default()
    };
    let sinks: Vec<u32> = (0..SIM_N as u32).collect();
    probes::walk_speedup(
        &mut layers,
        sim.tree(),
        &sim.ps.pos,
        &sim.ps.mass,
        &sim.ps.acc_old,
        &sinks,
        &cfg,
    );
    let events = sim.step().events;
    probes::model(&mut layers, &events);
    probes::server_calls(&mut layers);
    probes::telemetry_overhead(&mut layers, || {
        run_job();
    });
    telemetry::sink::shutdown();
    layers.finish(w, &mut out);
    out
}
