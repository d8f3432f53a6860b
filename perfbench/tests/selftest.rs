//! Self-tests of the benchmark: metric names against `BENCHMARK.json`,
//! seeded reproducibility of the accuracy figures and event counts, every
//! metric on a second seed, and the force gate tripping on bad forces.

use std::collections::BTreeSet;
use std::process::Command;

use gothic::telemetry::json::{parse, Value};
use perfbench::{blockstep, force, probes, Workload, END_TO_END};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run the benchmark binary; returns the parsed last stdout line.
fn run(workload: &str, seed: u64, seconds: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", trace])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn printed(result: &Value) -> BTreeSet<(String, String)> {
    let keys: BTreeSet<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn metric_tables_match_the_manifest() {
    let m = manifest();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&m, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = probes::LAYERS
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&m, "per_layer"), layers);
    let workloads: Vec<String> = m
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn printed_metric_names_match_the_manifest() {
    let m = manifest();
    let want = |key| names(&m, key).into_iter().collect::<BTreeSet<_>>();
    assert_eq!(
        printed(&run("service_hits", 1, "1", "0")),
        want("end_to_end")
    );
    assert_eq!(
        printed(&run("service_hits", 1, "1", "1")),
        want("per_layer")
    );
}

#[test]
fn a_second_seed_yields_every_metric_on_every_workload() {
    for w in Workload::ALL {
        let r = run(w.name(), 2, "1", "0");
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(true),
            "{}",
            w.name()
        );
        for (name, v) in r.get("metrics").and_then(Value::as_obj).expect("metrics") {
            let x = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            assert!(x.is_finite() && x > 0.0, "{} {name} = {x}", w.name());
        }
    }
}

#[test]
fn a_fixed_seed_reproduces_force_error_and_walk_events() {
    let once = || {
        let inp = force::setup(8192, 7);
        let e = force::evaluate(&inp, &force::batches(8192));
        let errors = force::force_errors(&inp, &e.acc, &force::error_sinks(8192, 7));
        let (p99, _) = force::error_gate(&errors);
        let tree = inp.sim.tree();
        (p99.to_bits(), e.events, tree.events, tree.n_nodes())
    };
    let (a, b) = (once(), once());
    assert_eq!(a.0, b.0, "force_err_p99 must repeat bit for bit");
    assert_eq!(format!("{:?}", a.1), format!("{:?}", b.1), "walk events");
    assert_eq!(format!("{:?}", a.2), format!("{:?}", b.2), "tree events");
    assert_eq!(a.3, b.3);
}

#[test]
fn a_fixed_seed_reproduces_energy_drift_and_step_events() {
    let once = || {
        let (seg, _) = blockstep::run_segment(blockstep::setup(4096, 11), 32);
        let events: Vec<String> = seg
            .reports
            .iter()
            .map(|r| format!("{:?}", r.events))
            .collect();
        (seg.drift.to_bits(), events, seg.invariants)
    };
    let (a, b) = (once(), once());
    assert_eq!(a.0, b.0, "energy drift must repeat bit for bit");
    assert_eq!(a.1, b.1, "walk/calc/tree events per step");
    assert!(a.2.is_ok(), "{:?}", a.2);
}

#[test]
fn a_perturbed_force_array_trips_the_force_gate() {
    let inp = force::setup(8192, 3);
    let mut e = force::evaluate(&inp, &force::batches(8192));
    let sinks = force::error_sinks(8192, 3);
    let (_, gate) = force::error_gate(&force::force_errors(&inp, &e.acc, &sinks));
    assert!(gate.pass, "{}", gate.detail);
    for a in &mut e.acc {
        *a *= 1.05;
    }
    let (_, gate) = force::error_gate(&force::force_errors(&inp, &e.acc, &sinks));
    assert!(
        !gate.pass,
        "a 5% force error must fail the gate: {}",
        gate.detail
    );
}
