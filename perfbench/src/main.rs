//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table and a provenance line, then, as the last line,
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Exits 1
//! when a correctness gate fails and 2 on bad arguments.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <force_m31|blockstep_m31|service_mix|service_hits> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = perfbench::run(&args);
    for m in &out.metrics {
        println!(
            "{:<28} {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for g in &out.gates {
        println!(
            "gate {:<24} {} {}",
            g.name,
            if g.pass { "pass" } else { "FAIL" },
            g.detail
        );
    }
    println!("{}", out.provenance_line(&args));
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
