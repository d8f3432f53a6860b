//! The softened point-mass gravity kernel (Eq. 1 of the paper).
//!
//! One interaction computes the acceleration and potential contribution of
//! a source (particle or tree pseudo-particle) on a sink particle:
//!
//! ```text
//! a_i += G · m_j (r_j − r_i) / (|r_j − r_i|² + ε²)^{3/2}
//! φ_i −= G · m_j / √(|r_j − r_i|² + ε²)
//! ```
//!
//! with G = 1 in simulation units. The instruction mix of this kernel is
//! what the paper counts with nvprof (Fig. 6); the equivalent per-event
//! mix table lives in `gpu-model::events`.
//!
//! Eq. 1 is written once, in [`interact`]. Two loops drive it: the scalar
//! [`accumulate`] (one sink, the reference) and the warp-shaped
//! [`accumulate_lanes`], which holds up to 32 sinks in structure-of-arrays
//! lanes and broadcasts each source to all of them — the layout of a warp
//! sharing one interaction list. Every lane sums in the same order as
//! `accumulate`, so the two agree bit for bit.

use crate::vec3::{Real, Vec3};

/// A gravity source: position and mass. Tree pseudo-particles and raw
/// particles are both flattened into this form inside interaction lists.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Source {
    pub pos: Vec3,
    pub mass: Real,
}

/// Accumulated acceleration and potential for one sink.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccPot {
    pub acc: Vec3,
    pub pot: Real,
}

impl AccPot {
    #[inline(always)]
    pub fn add(&mut self, o: AccPot) {
        self.acc += o.acc;
        self.pot += o.pot;
    }
}

/// Evaluate one softened interaction.
///
/// `eps2` is the square of the Plummer softening length ε. The softening
/// also suppresses self-interaction: a source at the sink position
/// contributes zero acceleration and a finite potential, exactly as in the
/// GPU kernel (which relies on ε² > 0 instead of an `i != j` branch).
#[inline(always)]
pub fn interact(sink: Vec3, src: Source, eps2: Real) -> AccPot {
    let d = src.pos - sink;
    let r2 = eps2 + d.norm2();
    // Exact overlap with zero softening contributes zero rather than
    // dividing by zero (only reachable in unsoftened test configurations;
    // the GPU kernel always runs with ε² > 0). A select, not an early
    // return, so the lane loop of [`accumulate_lanes`] stays vectorized;
    // the zero it yields may carry a negative sign, which leaves every
    // sum that starts at +0.0 unchanged. `r2 <= 0.0` (not `r2 > 0.0`)
    // keeps a NaN `r2` on the compute path, so NaN input still yields NaN.
    let rinv = if r2 <= 0.0 { 0.0 } else { 1.0 / r2.sqrt() }; // device: rsqrtf(r2)
    let rinv2 = rinv * rinv;
    let m_rinv = src.mass * rinv;
    let m_rinv3 = m_rinv * rinv2;
    AccPot {
        acc: d * m_rinv3,
        pot: -m_rinv,
    }
}

/// Accumulate the gravity of a list of sources onto one sink, in list
/// order from +0.0. This is the scalar reference for [`accumulate_lanes`],
/// which must reproduce it bit for bit in every lane. It is not the
/// `walkTree` flush loop: its callers are the per-particle walk's flush
/// (`octree::walk_tree_individual`), the `perfbench` flush probe, and the
/// tests that hold the lane kernel to it.
#[inline]
pub fn accumulate(sink: Vec3, sources: &[Source], eps2: Real) -> AccPot {
    let mut out = AccPot::default();
    for &s in sources {
        out.add(interact(sink, s, eps2));
    }
    out
}

/// Sinks per lane block — one warp's worth, the group size of `walkTree`.
pub const LANES: usize = 32;

/// Up to [`LANES`] sink positions in structure-of-arrays lanes: the
/// register layout of one warp, where lane `k` owns sink `k`.
#[derive(Clone, Copy, Debug)]
pub struct SinkLanes {
    x: [Real; LANES],
    y: [Real; LANES],
    z: [Real; LANES],
    /// Lanes holding a real sink; the rest are padding.
    active: usize,
}

impl SinkLanes {
    /// Load `sinks` (at most [`LANES`]) into lanes `0..sinks.len()`. The
    /// remaining lanes repeat the first sink so they compute ordinary
    /// values that are then discarded.
    pub fn load(sinks: impl ExactSizeIterator<Item = Vec3>) -> SinkLanes {
        let active = sinks.len();
        assert!(
            (1..=LANES).contains(&active),
            "lane block holds 1..={LANES} sinks, got {active}"
        );
        let mut lanes = SinkLanes {
            x: [0.0; LANES],
            y: [0.0; LANES],
            z: [0.0; LANES],
            active,
        };
        for (k, p) in sinks.enumerate() {
            lanes.x[k] = p.x;
            lanes.y[k] = p.y;
            lanes.z[k] = p.z;
        }
        for k in active..LANES {
            lanes.x[k] = lanes.x[0];
            lanes.y[k] = lanes.y[0];
            lanes.z[k] = lanes.z[0];
        }
        lanes
    }

    /// Number of lanes holding a real sink.
    pub fn active(&self) -> usize {
        self.active
    }
}

/// Per-lane acceleration and potential sums of a [`SinkLanes`] block.
#[derive(Clone, Copy, Debug)]
pub struct LaneSums {
    ax: [Real; LANES],
    ay: [Real; LANES],
    az: [Real; LANES],
    pot: [Real; LANES],
    active: usize,
}

impl LaneSums {
    /// All-zero sums for the lanes of `sinks`.
    pub fn zero(sinks: &SinkLanes) -> LaneSums {
        LaneSums {
            ax: [0.0; LANES],
            ay: [0.0; LANES],
            az: [0.0; LANES],
            pot: [0.0; LANES],
            active: sinks.active,
        }
    }

    /// Lane-wise `self += o`, the same per-sink addition as [`AccPot::add`].
    #[inline]
    pub fn add(&mut self, o: &LaneSums) {
        for k in 0..LANES {
            self.ax[k] += o.ax[k];
            self.ay[k] += o.ay[k];
            self.az[k] += o.az[k];
            self.pot[k] += o.pot[k];
        }
    }

    /// The sums of the real sinks, in lane order; padding is dropped.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AccPot> + '_ {
        (0..self.active).map(|k| AccPot {
            acc: Vec3::new(self.ax[k], self.ay[k], self.az[k]),
            pot: self.pot[k],
        })
    }
}

/// Accumulate the gravity of a list of sources onto a block of sinks —
/// the warp-shaped interaction-list flush of `walkTree`. Each source is
/// broadcast to all [`LANES`] lanes and every lane sums the list in order
/// from +0.0, so lane `k` equals `accumulate(sink_k, sources, eps2)` bit
/// for bit; the loop over lanes is what vectorizes.
///
/// The lane loop is compiled twice on x86-64 and picked at run time: an
/// AVX2 build (8 lanes per instruction) when the CPU reports `avx2`, and
/// the baseline SSE build (4 lanes) otherwise. Both give the same bits:
/// sub, mul, add, `sqrt` and div are correctly rounded at any width, and
/// no multiply is fused into an add (Rust does not contract, and `fma`
/// is not enabled). Other architectures compile only the baseline build.
///
/// Never inlined: one call covers a whole list (thousands of
/// interactions), and stand-alone symbols let CI check that each build
/// compiles to packed arithmetic.
#[inline(never)]
pub fn accumulate_lanes(sinks: &SinkLanes, sources: &[Source], eps2: Real) -> LaneSums {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `accumulate_lanes_avx2` only requires the `avx2` target
        // feature, and the CPU running this code has just reported it.
        return unsafe { accumulate_lanes_avx2(sinks, sources, eps2) };
    }
    accumulate_lanes_body(sinks, sources, eps2)
}

/// [`accumulate_lanes`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn accumulate_lanes_avx2(sinks: &SinkLanes, sources: &[Source], eps2: Real) -> LaneSums {
    accumulate_lanes_body(sinks, sources, eps2)
}

/// The lane loop shared by every build of [`accumulate_lanes`]; inlined
/// so that each caller compiles it for its own target features.
#[inline(always)]
fn accumulate_lanes_body(sinks: &SinkLanes, sources: &[Source], eps2: Real) -> LaneSums {
    let mut out = LaneSums::zero(sinks);
    for &s in sources {
        for k in 0..LANES {
            let o = interact(Vec3::new(sinks.x[k], sinks.y[k], sinks.z[k]), s, eps2);
            out.ax[k] += o.acc.x;
            out.ay[k] += o.acc.y;
            out.az[k] += o.acc.z;
            out.pot[k] += o.pot;
        }
    }
    out
}

/// Remove the self-interaction potential bias: a particle in its own
/// interaction list contributes `-m/ε` to its potential (and nothing to
/// acceleration). Calibrated diagnostics subtract this term.
#[inline(always)]
pub fn self_potential(mass: Real, eps2: Real) -> Real {
    if eps2 > 0.0 {
        -mass / eps2.sqrt()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::Rng;
    use testkit::{check, Gen};

    #[test]
    fn unsoftened_matches_newton() {
        // Unit mass at distance 2 along x: a = m/r² = 0.25 toward source.
        let out = interact(
            Vec3::ZERO,
            Source {
                pos: Vec3::new(2.0, 0.0, 0.0),
                mass: 1.0,
            },
            0.0,
        );
        assert!((out.acc.x - 0.25).abs() < 1e-6);
        assert_eq!(out.acc.y, 0.0);
        assert!((out.pot + 0.5).abs() < 1e-6);
    }

    #[test]
    fn softening_removes_divergence() {
        let out = interact(
            Vec3::ZERO,
            Source {
                pos: Vec3::ZERO,
                mass: 3.0,
            },
            0.01,
        );
        assert_eq!(out.acc, Vec3::ZERO);
        assert!((out.pot - self_potential(3.0, 0.01)).abs() < 1e-6);
        assert!(out.pot.is_finite());
    }

    #[test]
    fn acceleration_points_toward_source() {
        let src = Source {
            pos: Vec3::new(-1.0, 2.0, 0.5),
            mass: 2.0,
        };
        let out = interact(Vec3::ZERO, src, 1e-4);
        let d = src.pos;
        // acc ∝ d with positive coefficient
        let cosine = out.acc.dot(d) / (out.acc.norm() * d.norm());
        assert!((cosine - 1.0).abs() < 1e-5);
    }

    #[test]
    fn accumulate_is_sum_of_interactions() {
        let sinks = Vec3::new(0.3, -0.2, 0.9);
        let srcs = [
            Source {
                pos: Vec3::new(1.0, 0.0, 0.0),
                mass: 1.0,
            },
            Source {
                pos: Vec3::new(0.0, 2.0, 0.0),
                mass: 0.5,
            },
            Source {
                pos: Vec3::new(0.0, 0.0, -3.0),
                mass: 2.0,
            },
        ];
        let total = accumulate(sinks, &srcs, 1e-3);
        let mut manual = AccPot::default();
        for &s in &srcs {
            manual.add(interact(sinks, s, 1e-3));
        }
        assert_eq!(total, manual);
    }

    #[test]
    fn softened_force_weaker_than_unsoftened() {
        let src = Source {
            pos: Vec3::new(1.0, 0.0, 0.0),
            mass: 1.0,
        };
        let hard = interact(Vec3::ZERO, src, 0.0);
        let soft = interact(Vec3::ZERO, src, 0.5);
        assert!(soft.acc.norm() < hard.acc.norm());
    }

    type LaneFlush = fn(&SinkLanes, &[Source], Real) -> LaneSums;

    /// The public dispatcher and every compiled build of the lane loop
    /// this CPU can run, so a host with AVX2 still tests the baseline.
    fn lane_builds() -> Vec<(&'static str, LaneFlush)> {
        let mut builds: Vec<(&'static str, LaneFlush)> = vec![
            ("accumulate_lanes", accumulate_lanes),
            ("baseline", accumulate_lanes_body),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            builds.push(("avx2", |sinks, sources, eps2| {
                // SAFETY: pushed only after the CPU reported `avx2`.
                unsafe { accumulate_lanes_avx2(sinks, sources, eps2) }
            }));
        }
        builds
    }

    /// Eq. 1 as it was written before the select: an early return on
    /// `r2 <= 0`. The select form must reproduce its sums exactly.
    fn interact_early_return(sink: Vec3, src: Source, eps2: Real) -> AccPot {
        let d = src.pos - sink;
        let r2 = eps2 + d.norm2();
        if r2 <= 0.0 {
            return AccPot::default();
        }
        let rinv = 1.0 / r2.sqrt();
        let m_rinv = src.mass * rinv;
        AccPot {
            acc: d * (m_rinv * (rinv * rinv)),
            pot: -m_rinv,
        }
    }

    fn bits(o: AccPot) -> [u32; 4] {
        [o.acc.x, o.acc.y, o.acc.z, o.pot].map(Real::to_bits)
    }

    /// Equal bits, or NaN on both sides (NaN payloads are not part of the
    /// contract).
    fn same(a: AccPot, b: AccPot) -> bool {
        let (a, b) = (bits(a), bits(b));
        a.iter()
            .zip(&b)
            .all(|(&x, &y)| x == y || (Real::from_bits(x).is_nan() && Real::from_bits(y).is_nan()))
    }

    fn point(g: &mut Gen) -> Vec3 {
        let mut c = || g.rng().random::<Real>() * 2.0 - 1.0;
        Vec3::new(c(), c(), c())
    }

    /// Run every lane build on `sinks` and compare each lane with the
    /// scalar reference, which must itself equal the early-return form;
    /// returns the reference sums.
    fn assert_lanes_match(sinks: &[Vec3], sources: &[Source], eps2: Real) -> Vec<AccPot> {
        let want: Vec<AccPot> = sinks
            .iter()
            .map(|&sink| {
                let want = accumulate(sink, sources, eps2);
                let mut old = AccPot::default();
                for &s in sources {
                    old.add(interact_early_return(sink, s, eps2));
                }
                assert!(same(want, old), "select form differs from early return");
                want
            })
            .collect();
        let lanes = SinkLanes::load(sinks.iter().copied());
        for (build, flush) in lane_builds() {
            let got: Vec<AccPot> = flush(&lanes, sources, eps2).iter().collect();
            assert_eq!(
                got.len(),
                sinks.len(),
                "{build}: padding lanes must be dropped"
            );
            for (k, (&got, &want)) in got.iter().zip(&want).enumerate() {
                assert!(
                    same(got, want),
                    "{build}: lane {k}/{} of a {}-source list, eps2 = {eps2}: {got:?} vs {want:?}",
                    sinks.len(),
                    sources.len()
                );
            }
        }
        want
    }

    #[test]
    fn lanes_match_scalar_reference_for_every_list_length() {
        // One case per list length 1..=300; the active lane count cycles
        // through 1..=32 so partial blocks of every size are covered.
        let mut len = 0usize;
        check("lanes_match_scalar_reference", 300, |g| {
            len += 1;
            let active = (len - 1) % LANES + 1;
            let eps2 = match g.usize_in(0..4) {
                0 => 0.0,
                1 => 1e-6,
                2 => 1e-4,
                _ => g.f64_unit() as Real * 0.1,
            };
            let sinks: Vec<Vec3> = (0..active).map(|_| point(g)).collect();
            let mut sources: Vec<Source> = (0..len)
                .map(|_| Source {
                    pos: point(g),
                    mass: g.f64_unit() as Real,
                })
                .collect();
            // Half the cases put a source exactly on a sink.
            if g.usize_in(0..2) == 0 {
                let s = g.usize_in(0..len);
                sources[s].pos = sinks[g.usize_in(0..active)];
            }
            assert_lanes_match(&sinks, &sources, eps2);
        });
    }

    #[test]
    fn coincident_sink_without_softening_contributes_zero() {
        let sink = Vec3::new(0.25, -0.5, 0.75);
        let sources = [
            Source {
                pos: Vec3::new(1.0, 0.0, 0.0),
                mass: 0.5,
            },
            Source {
                pos: sink,
                mass: 2.0,
            },
            Source {
                pos: Vec3::new(0.0, -1.0, 0.5),
                mass: 1.5,
            },
        ];
        let out = assert_lanes_match(&[sink, Vec3::new(-1.0, 2.0, 0.0)], &sources, 0.0);
        assert!(out[0].acc.is_finite() && out[0].pot.is_finite());
        // The coincident source adds exactly nothing.
        let others = assert_lanes_match(&[sink], &[sources[0], sources[2]], 0.0);
        assert_eq!(bits(out[0]), bits(others[0]));
    }

    #[test]
    fn nan_source_position_still_yields_nan() {
        let sinks: Vec<Vec3> = (0..LANES)
            .map(|k| Vec3::new(k as Real, 0.5, -0.5))
            .collect();
        for eps2 in [0.0, 1e-4] {
            let sources = [
                Source {
                    pos: Vec3::new(1.0, 1.0, 1.0),
                    mass: 1.0,
                },
                Source {
                    pos: Vec3::new(Real::NAN, 0.0, 0.0),
                    mass: 1.0,
                },
            ];
            for o in assert_lanes_match(&sinks, &sources, eps2) {
                assert!(o.acc.x.is_nan() && o.pot.is_nan(), "{o:?}");
            }
        }
    }
}
