//! Host benchmark of gothic-rs.
//!
//! Every number here is host wall time measured from outside the program:
//! the benchmark times calls into the crates' public functions and reads
//! what those calls already return (`WalkResult.events`, `StepReport`,
//! `ServerStats`, the telemetry counters). Modeled-V100 seconds are the
//! reproduction's output and never appear as a metric.
//!
//! Every workload prints every end-to-end metric; what a metric measures
//! on a given workload is stated in [`Workload::meaning`] and printed in
//! the provenance line. `--trace 1` instead prints the per-layer metrics,
//! each tagged with the end-to-end metric and workload it should move.

pub mod blockstep;
pub mod force;
pub mod probes;
pub mod service;
pub mod stats;

use gothic::telemetry::json::{self, JsonObject};

/// End-to-end metrics (name, unit), in the order `BENCHMARK.json` lists
/// them. Every workload prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ForceM31,
    BlockstepM31,
    ServiceMix,
    ServiceHits,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ForceM31,
        Workload::BlockstepM31,
        Workload::ServiceMix,
        Workload::ServiceHits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForceM31 => "force_m31",
            Workload::BlockstepM31 => "blockstep_m31",
            Workload::ServiceMix => "service_mix",
            Workload::ServiceHits => "service_hits",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (one sentence, printed with every result).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ForceM31 => {
                "All-active M31 force evaluation at N=262144 and dacc=2^-9: the walk (Eq. 1 flush plus traversal) does almost all the work on a working set larger than one core's L2."
            }
            Workload::BlockstepM31 => {
                "256 block steps of M31 at N=65536 with auto rebuild: every step pays predict, calcNode, the bmax scan and pricing over all particles, while walks over large active sets set the force-update rate."
            }
            Workload::ServiceMix => {
                "Closed-loop gothicd mix on 2 connections (40% simulate misses, 40% hits, 10% predict, 10% racecheck): the whole pipeline plus cache writes beside reads."
            }
            Workload::ServiceHits => {
                "Closed-loop gothicd cache hits on 2 connections over 8 hot configs: protocol, TCP and cache read only, the path the miss-dominated mix hides."
            }
        }
    }

    /// What each end-to-end metric measures on this workload.
    pub fn meaning(self, metric: &str) -> &'static str {
        use Workload::*;
        match (metric, self) {
            ("setup_s", ForceM31) => "median of 3 set-ups: M31 sample, tree build, calcNode, theta=0.7 bootstrap walk",
            ("setup_s", BlockstepM31) => "median of 3 set-ups: M31 sample and Gothic::new",
            ("setup_s", ServiceMix | ServiceHits) => "median of 5 set-ups: server start, 8 hot configs computed, predict baseline warmed",
            ("peak_rss_mb", _) => "peak resident set of the benchmark process (VmHWM)",
            ("throughput_per_s", ForceM31) => "sink force evaluations per second of walk_tree",
            ("throughput_per_s", BlockstepM31) => "sink force updates (active particles) per second of Gothic::step",
            ("throughput_per_s", ServiceMix | ServiceHits) => "requests completed per second, 2 closed-loop connections",
            ("latency_ms_p50", ForceM31) => "median over 128 walk_tree calls of 2048 sinks (every 128th warp group), each call the minimum over the repeated evaluations",
            ("latency_ms_p50", BlockstepM31) => "median over non-rebuild steps of Gothic::step wall minus its walk_tree and correct walls (predict, calcNode, bmax scan, pricing), each step the minimum over >= 2 identical replays",
            ("latency_ms_p50", ServiceMix) => "median simulate miss, client side",
            ("latency_ms_p50", ServiceHits) => "median simulate hit, client side",
            ("latency_ms_p90", ForceM31) => "p90 of the same per-call minima",
            ("latency_ms_p90", BlockstepM31) => "p90 of the same per-step minima",
            ("latency_ms_p90", ServiceMix) => "p90 simulate miss, client side",
            ("latency_ms_p90", ServiceHits) => "p90 simulate hit, client side",
            _ => "",
        }
    }
}

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// What the value measures (end-to-end) or the end-to-end metric and
    /// workload it should move (per-layer).
    pub note: String,
}

/// A correctness gate and its outcome.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name,
            pass,
            detail: detail.into(),
        }
    }
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed in the measured window.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Add an end-to-end metric; its note is the workload's meaning.
    pub fn e2e(
        &mut self,
        w: Workload,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.push(name, value, unit, samples, w.meaning(name));
    }

    /// Add a metric with its note.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = JsonObject::new();
        for x in &self.metrics {
            let mut v = JsonObject::new();
            v.f64("value", x.value).str("unit", x.unit);
            m.raw(x.name, &v.finish());
        }
        let mut o = JsonObject::new();
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &m.finish());
        o.finish()
    }

    /// Provenance and rationale printed before the result line.
    pub fn provenance_line(&self, args: &Args) -> String {
        let (mut built, mut host) = (JsonObject::new(), JsonObject::new());
        for (name, compiled, detected) in target_features() {
            built.bool(name, compiled);
            host.bool(name, detected);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut o = JsonObject::new();
                o.str("name", m.name)
                    .u64("samples", m.samples as u64)
                    .str(if args.trace { "moves" } else { "measures" }, &m.note);
                o.finish()
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                let mut o = JsonObject::new();
                o.str("gate", g.name)
                    .bool("pass", g.pass)
                    .str("detail", &g.detail);
                o.finish()
            })
            .collect();
        let mut o = JsonObject::new();
        o.str("type", "provenance")
            .str("workload", args.workload.name())
            .str("why", args.workload.why())
            .u64("seed", args.seed)
            .f64("seconds", args.seconds)
            .bool("trace", args.trace)
            .str("git_rev", &git_rev())
            .u64("nproc", nproc() as u64)
            .u64("pool_threads", parallel::current_threads() as u64)
            .raw("target_features", &built.finish())
            .raw("host_features", &host.finish())
            .raw("metrics", &json::array(&metrics))
            .raw("gates", &json::array(&gates));
        o.finish()
    }
}

/// Logical CPUs available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// (feature, enabled in this build, present on this host) for the SIMD
/// features the kernels could use.
pub(crate) fn target_features() -> [(&'static str, bool, bool); 3] {
    #[cfg(target_arch = "x86_64")]
    let host = [
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("fma"),
        std::is_x86_feature_detected!("avx512f"),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let host = [false; 3];
    [
        ("avx2", cfg!(target_feature = "avx2"), host[0]),
        ("fma", cfg!(target_feature = "fma"), host[1]),
        ("avx512f", cfg!(target_feature = "avx512f"), host[2]),
    ]
}

/// The checked-out revision, or "unknown" outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Time `f` once, returning its value and the elapsed seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Run one workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::ForceM31 => force::run(args),
        Workload::BlockstepM31 => blockstep::run(args),
        Workload::ServiceMix => service::run(args, service::Mix::Mixed),
        Workload::ServiceHits => service::run(args, service::Mix::HitsOnly),
    }
}
