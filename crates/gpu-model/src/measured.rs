//! Measured vs. modeled operation counts — the §4 calibration loop.
//!
//! The paper validates its instruction-count model against *measured*
//! nvprof counters (Fig. 6) before using it to explain the Volta/Pascal
//! gap with the `max(int, fp)` overlap argument (Fig. 7). This module
//! closes the same loop inside the reproduction: the simt interpreter's
//! per-pipe counts ([`simt::prof`], read from each run) play nvprof, the [`crate::events`]
//! mixes play the analytic model, and [`table2_measurements`] runs a
//! representative micro-kernel for each of the five Table 2 functions and
//! returns both sides for comparison.
//!
//! Kernel ↔ function mapping (each micro-kernel is the instruction-level
//! heart of its GOTHIC function):
//!
//! | Table 2 function | micro-kernel            | modeled events            |
//! |------------------|-------------------------|---------------------------|
//! | `walkTree`       | `gravity_flush` (Eq. 1) | 32 sinks × 32 sources     |
//! | `calcNode`       | warp shuffle reduction  | 8 nodes × 32 children     |
//! | `makeTree`       | inclusive warp scan     | 256 particles, 1 pass     |
//! | `predict`        | predictor integrator    | 256 particles             |
//! | `correct`        | corrector integrator    | 256 particles             |
//!
//! Where measured and modeled agree *exactly* (the FP pipes of the
//! gravity and integrator kernels — the mixes were derived from the same
//! arithmetic) the comparison is a hard invariant, pinned by tests. Where
//! they diverge (INT addressing: the register-VM IR has no addressing
//! modes, so every memory access pays explicit integer address
//! arithmetic that real SASS folds into the LSU datapath) the divergence
//! is itself the observable, reported as a relative model error per pipe.

use crate::events::{CalcNodeEvents, IntegrateEvents, MakeTreeEvents, WalkEvents};
use crate::ops::OpCounts;
use simt::microbench as mb;
use simt::{KernelProfile, Scheduler};

/// Convert a measured per-pipe profile into the model's [`OpCounts`]
/// vocabulary, losslessly for every counter the model prices:
///
/// * `int_ops` absorbs the INT pipe plus everything nvprof's
///   `inst_integer` would see as integer-datapath work: control moves,
///   FP compares (set-predicate), shuffles and votes.
/// * FP pipes map one-to-one.
/// * Bytes are **global-memory traffic only** (4 B per lane-transaction —
///   every IR cell is a `u32`); shared-memory traffic stays profile-only
///   because the model's `ld_bytes`/`st_bytes` price DRAM bandwidth.
/// * `serial_rounds`/`launch_units` are latency-model inputs with no
///   measured analogue, left at 0/1 (one plain launch).
pub fn op_counts_from_profile(p: &KernelProfile) -> OpCounts {
    let c = &p.counts;
    OpCounts {
        int_ops: c.int_ops + c.control + c.fp_cmp + c.shuffles + c.votes,
        fp_fma: c.fp_fma,
        fp_mul: c.fp_mul,
        fp_add: c.fp_add,
        fp_special: c.fp_special,
        ld_bytes: 4 * c.global_ld,
        st_bytes: 4 * (c.global_st + c.global_atomics),
        sync_warp: c.syncwarps,
        sync_block: c.syncthreads,
        sync_grid: c.grid_barriers,
        serial_rounds: 0,
        launch_units: 1,
    }
}

/// One Table 2 function with both sides of the §4 comparison.
#[derive(Clone, Debug)]
pub struct MeasuredKernel {
    /// Table 2 function name (`walkTree`, `calcNode`, …).
    pub function: &'static str,
    /// Interpreter kernel that stood in for it.
    pub kernel: &'static str,
    /// Counts measured by the simt profiler, in model vocabulary.
    pub measured: OpCounts,
    /// Counts predicted by the event mix.
    pub modeled: OpCounts,
    /// The raw per-pipe profile (shared-memory traffic, divergence and
    /// reconvergence depth live only here).
    pub profile: KernelProfile,
}

impl MeasuredKernel {
    /// Relative model error `(measured − modeled) / modeled` for one
    /// counter pair; `None` when the model predicts zero.
    pub fn rel_err(measured: u64, modeled: u64) -> Option<f64> {
        (modeled > 0).then(|| (measured as f64 - modeled as f64) / modeled as f64)
    }

    /// The per-pipe (label, measured, modeled) rows of the report table.
    pub fn pipe_rows(&self) -> [(&'static str, u64, u64); 8] {
        [
            ("INT32", self.measured.int_ops, self.modeled.int_ops),
            ("FP32 fma", self.measured.fp_fma, self.modeled.fp_fma),
            ("FP32 mul", self.measured.fp_mul, self.modeled.fp_mul),
            ("FP32 add", self.measured.fp_add, self.modeled.fp_add),
            (
                "SFU rsqrt",
                self.measured.fp_special,
                self.modeled.fp_special,
            ),
            ("ld bytes", self.measured.ld_bytes, self.modeled.ld_bytes),
            ("st bytes", self.measured.st_bytes, self.modeled.st_bytes),
            ("syncwarp", self.measured.sync_warp, self.modeled.sync_warp),
        ]
    }
}

/// Event scale of the fiducial micro-kernel runs (kept small enough that
/// `--profile` costs milliseconds, large enough that every pipe is
/// exercised).
const SINKS: u64 = 32;
const SOURCES: u64 = 32;
const REDUCE_TTOT: usize = 256;
const TSUB: u32 = 32;
const INTEGRATE_N: usize = 256;

/// Run one micro-kernel per Table 2 function and pair each
/// measurement with its modeled mix. `volta_mode` selects both the
/// scheduler (Independent vs. Lockstep) and the binary flavour
/// (`__syncwarp()` present vs. compiled away), mirroring
/// [`crate::timing::ExecMode`].
pub fn table2_measurements(volta_mode: bool) -> Vec<MeasuredKernel> {
    let sched = if volta_mode {
        Scheduler::Independent
    } else {
        Scheduler::Lockstep
    };

    let [walk_prof, calc_prof, make_prof, pred_prof, corr_prof] = [
        mb::run_gravity_flush(SOURCES as u32, 1e-4, sched),
        mb::run_reduction(REDUCE_TTOT, TSUB, volta_mode, sched),
        mb::run_scan(REDUCE_TTOT, TSUB, volta_mode, sched),
        mb::run_predict(INTEGRATE_N, sched),
        mb::run_correct(INTEGRATE_N, sched),
    ]
    .map(|run| {
        let name = &run.profile.kernel;
        assert!(run.correct, "{name} micro-kernel produced wrong results");
        run.profile
    });

    let walk_model = WalkEvents {
        groups: SINKS / 32,
        sinks: SINKS,
        interactions: SINKS * SOURCES,
        flushes: 1,
        ..WalkEvents::default()
    };
    let calc_model = CalcNodeEvents {
        nodes: (REDUCE_TTOT / TSUB as usize) as u64,
        child_accumulations: REDUCE_TTOT as u64,
        levels: 1,
        grid_syncs: 0,
    };
    let make_model = MakeTreeEvents {
        particles: REDUCE_TTOT as u64,
        sort_passes: 1,
        nodes_created: 0,
    };
    let integrate_model = IntegrateEvents {
        particles: INTEGRATE_N as u64,
    };

    vec![
        MeasuredKernel {
            function: "walkTree",
            kernel: "gravity_flush",
            measured: op_counts_from_profile(&walk_prof),
            modeled: walk_model.to_ops(volta_mode),
            profile: walk_prof,
        },
        MeasuredKernel {
            function: "calcNode",
            kernel: "reduction",
            measured: op_counts_from_profile(&calc_prof),
            modeled: calc_model.to_ops(volta_mode),
            profile: calc_prof,
        },
        MeasuredKernel {
            function: "makeTree",
            kernel: "scan",
            measured: op_counts_from_profile(&make_prof),
            modeled: make_model.to_ops(volta_mode),
            profile: make_prof,
        },
        MeasuredKernel {
            function: "predict",
            kernel: "predict",
            measured: op_counts_from_profile(&pred_prof),
            modeled: integrate_model.to_ops(volta_mode),
            profile: pred_prof,
        },
        MeasuredKernel {
            function: "correct",
            kernel: "correct",
            measured: op_counts_from_profile(&corr_prof),
            modeled: integrate_model.to_ops(volta_mode),
            profile: corr_prof,
        },
    ]
}

/// Render the measured-vs-modeled table (the reproduction's Fig. 6): one
/// block per Table 2 function, one row per pipe, with the relative model
/// error where the model predicts a nonzero count.
pub fn render_table(kernels: &[MeasuredKernel]) -> String {
    let mut out = String::new();
    out.push_str("measured vs modeled operation counts (per kernel launch)\n");
    for k in kernels {
        out.push_str(&format!(
            "\n{} (micro-kernel: {}, warps: {}, launches: {})\n",
            k.function, k.kernel, k.profile.warps, k.profile.launches
        ));
        out.push_str(&format!(
            "  {:<10} {:>12} {:>12} {:>10}\n",
            "pipe", "measured", "modeled", "rel err"
        ));
        for (label, measured, modeled) in k.pipe_rows() {
            if measured == 0 && modeled == 0 {
                continue;
            }
            let err = match MeasuredKernel::rel_err(measured, modeled) {
                Some(e) => format!("{:>+9.1}%", 100.0 * e),
                None => "       n/a".to_string(),
            };
            out.push_str(&format!(
                "  {label:<10} {measured:>12} {modeled:>12} {err}\n"
            ));
        }
        let c = &k.profile.counts;
        out.push_str(&format!(
            "  shared traffic: {} ld / {} st transactions; divergence: {} splits, depth {}\n",
            c.shared_ld, c.shared_st, c.divergence_events, c.max_reconv_depth
        ));
    }
    out
}

/// Render the §4 overlap analysis (Fig. 7) from the *measured* counts:
/// per function, the split-pipe issue count `max(int, fp)` against the
/// unified-pipe count `int + fp`, and the hiding gain their ratio bounds.
pub fn render_overlap(kernels: &[MeasuredKernel]) -> String {
    let mut out = String::new();
    out.push_str("INT/FP32 overlap analysis from measured counts (Fig. 7)\n");
    out.push_str(&format!(
        "  {:<10} {:>12} {:>12} {:>12} {:>12} {:>6}\n",
        "function", "int", "fp32", "max(int,fp)", "int+fp", "gain"
    ));
    for k in kernels {
        let m = &k.measured;
        let gain = m.serial_sum() as f64 / m.overlap_max().max(1) as f64;
        out.push_str(&format!(
            "  {:<10} {:>12} {:>12} {:>12} {:>12} {:>5.2}x\n",
            k.function,
            m.int_ops,
            m.fp_core_ops(),
            m.overlap_max(),
            m.serial_sum(),
            gain
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table2_function_is_measured_with_nonzero_counts() {
        let ks = table2_measurements(false);
        let names: Vec<_> = ks.iter().map(|k| k.function).collect();
        assert_eq!(
            names,
            ["walkTree", "calcNode", "makeTree", "predict", "correct"]
        );
        for k in &ks {
            assert!(
                k.measured.int_ops > 0,
                "{}: no INT work measured",
                k.function
            );
            assert!(k.modeled.int_ops > 0, "{}: no INT work modeled", k.function);
            assert!(k.profile.launches >= 1);
            assert!(k.profile.warps >= 1);
        }
        // The FP-heavy functions measure FP work on every pipe the model
        // predicts work on (the reduction/scan stand-ins are integer
        // kernels — their FP divergence is part of the reported error).
        for k in ks
            .iter()
            .filter(|k| matches!(k.function, "walkTree" | "predict" | "correct"))
        {
            assert!(k.measured.fp_fma > 0, "{}: no FMA measured", k.function);
        }
    }

    #[test]
    fn gravity_and_integrator_fp_pipes_match_the_model_exactly() {
        // The event mixes were derived from the same arithmetic the
        // micro-kernels execute, so FMA/mul/special must agree *exactly*
        // — this is the calibration the paper does against nvprof.
        for volta in [false, true] {
            let ks = table2_measurements(volta);
            for k in ks
                .iter()
                .filter(|k| matches!(k.function, "walkTree" | "predict" | "correct"))
            {
                assert_eq!(
                    k.measured.fp_fma, k.modeled.fp_fma,
                    "{} fma (volta={volta})",
                    k.function
                );
                assert_eq!(
                    k.measured.fp_mul, k.modeled.fp_mul,
                    "{} mul (volta={volta})",
                    k.function
                );
                assert_eq!(
                    k.measured.fp_special, k.modeled.fp_special,
                    "{} special (volta={volta})",
                    k.function
                );
            }
            // Integrator adds are exact too; the gravity kernel's add
            // pipe carries the staging-loop artifact (see pinned test).
            for k in ks
                .iter()
                .filter(|k| matches!(k.function, "predict" | "correct"))
            {
                assert_eq!(k.measured.fp_add, k.modeled.fp_add, "{}", k.function);
            }
        }
    }

    #[test]
    fn volta_mode_measures_syncwarps_where_pascal_measures_none() {
        let volta = table2_measurements(true);
        let pascal = table2_measurements(false);
        let by =
            |ks: &[MeasuredKernel], f: &str| ks.iter().find(|k| k.function == f).unwrap().measured;
        // calcNode's reduction carries explicit __syncwarp() only in the
        // Volta-mode binary (§2.1 / Listing 2).
        assert!(by(&volta, "calcNode").sync_warp > 0);
        assert_eq!(by(&pascal, "calcNode").sync_warp, 0);
        // predict/correct have no intra-warp syncs in either mode (§4.1).
        for f in ["predict", "correct"] {
            assert_eq!(by(&volta, f).sync_warp, 0, "{f}");
            assert_eq!(by(&pascal, f).sync_warp, 0, "{f}");
        }
    }

    #[test]
    fn model_error_stays_inside_the_pinned_bands() {
        // The fiducial sweep recorded in EXPERIMENTS.md §Measured vs
        // modeled. These bands pin today's model error so regressions in
        // either the kernels or the mixes surface as test failures:
        //
        // * walkTree INT runs *under* the model (−12.7%: the modeled
        //   per-interaction INT charge includes loop-counter work the
        //   unrolled micro-kernel doesn't pay) and FP add runs *over*
        //   (+36.3%: the per-lane sink-staging loop builds coordinates by
        //   repeated addition — an int→float staging artifact).
        // * The integrators and calcNode run INT 2.5–4.2× over: the IR
        //   has no addressing modes, so every access pays explicit
        //   address arithmetic that SASS folds into the LSU.
        // * makeTree INT runs under (−43%): the scan stand-in performs
        //   only the tile-wide scan, not the Morton keying + radix
        //   passes the full mix charges.
        let in_band = |k: &MeasuredKernel, measured: u64, modeled: u64, lo: f64, hi: f64| {
            let e = MeasuredKernel::rel_err(measured, modeled).unwrap();
            assert!(
                (lo..=hi).contains(&e),
                "{}: rel err {e:+.3} outside [{lo}, {hi}]",
                k.function
            );
        };
        let ks = table2_measurements(false);
        for k in &ks {
            match k.function {
                "walkTree" => {
                    in_band(k, k.measured.int_ops, k.modeled.int_ops, -0.20, 0.0);
                    in_band(k, k.measured.fp_add, k.modeled.fp_add, 0.25, 0.50);
                }
                "calcNode" => {
                    in_band(k, k.measured.int_ops, k.modeled.int_ops, 3.0, 4.5);
                }
                "makeTree" => {
                    in_band(k, k.measured.int_ops, k.modeled.int_ops, -0.55, -0.30);
                }
                "predict" | "correct" => {
                    in_band(k, k.measured.int_ops, k.modeled.int_ops, 2.0, 3.5);
                    in_band(k, k.measured.ld_bytes, k.modeled.ld_bytes, -0.15, 0.15);
                    in_band(k, k.measured.st_bytes, k.modeled.st_bytes, -0.15, 0.05);
                }
                other => panic!("unexpected function {other}"),
            }
        }
        // Measured overlap analysis: the gravity and integrator kernels
        // sit in the paper's hiding regime (gain ≈ 1.5, Fig. 7).
        for k in ks
            .iter()
            .filter(|k| matches!(k.function, "walkTree" | "predict" | "correct"))
        {
            let gain = k.measured.serial_sum() as f64 / k.measured.overlap_max() as f64;
            assert!(
                (1.3..=1.8).contains(&gain),
                "{}: hiding gain {gain:.2}",
                k.function
            );
        }
    }

    #[test]
    fn renderers_cover_every_function() {
        let ks = table2_measurements(false);
        let table = render_table(&ks);
        let overlap = render_overlap(&ks);
        for f in ["walkTree", "calcNode", "makeTree", "predict", "correct"] {
            assert!(table.contains(f), "table missing {f}");
            assert!(overlap.contains(f), "overlap missing {f}");
        }
        assert!(table.contains("rel err"));
        assert!(overlap.contains("max(int,fp)"));
    }
}
