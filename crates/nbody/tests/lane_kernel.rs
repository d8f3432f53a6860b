//! The warp-shaped flush `accumulate_lanes` against the scalar reference
//! `accumulate`, bit for bit, lane by lane.

use nbody::kernel::{accumulate, accumulate_lanes, AccPot, SinkLanes, Source, LANES};
use nbody::{Real, Vec3};
use prng::Rng;
use testkit::{check, Gen};

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

/// Run the lane kernel on `sinks` and compare every lane with the scalar
/// reference and with the early-return form; returns the lane sums.
fn assert_lanes_match(sinks: &[Vec3], sources: &[Source], eps2: Real) -> Vec<AccPot> {
    let lanes = SinkLanes::load(sinks.iter().copied());
    let out: Vec<AccPot> = accumulate_lanes(&lanes, sources, eps2).iter().collect();
    assert_eq!(out.len(), sinks.len(), "padding lanes must be discarded");
    for (k, (&sink, &got)) in sinks.iter().zip(&out).enumerate() {
        let want = accumulate(sink, sources, eps2);
        assert!(
            same(got, want),
            "lane {k}/{} of a {}-source list, eps2 = {eps2}: {got:?} vs {want:?}",
            sinks.len(),
            sources.len()
        );
        let mut old = AccPot::default();
        for &s in sources {
            old.add(interact_early_return(sink, s, eps2));
        }
        assert!(same(want, old), "select form differs from early return");
    }
    out
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
