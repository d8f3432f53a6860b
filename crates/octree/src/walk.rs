//! The tree traversal — the `walkTree` kernel, GOTHIC's dominant cost
//! (Figs. 3 and 4).
//!
//! GOTHIC assigns 32 Morton-adjacent particles to the 32 threads of a
//! warp. The warp traverses the tree *breadth-first*, keeping a queue of
//! candidate cells in a per-SM buffer: each round, the 32 lanes test 32
//! candidates against the MAC in parallel; accepted cells append their
//! pseudo-particle to a shared **interaction list**, rejected internal
//! cells append their children back to the queue, and rejected leaves
//! append their particles to the list. When the list reaches capacity it
//! is *flushed*: every lane integrates Eq. 1 over all list entries for
//! its own sink particle (raising arithmetic intensity — the listed
//! sources are shared by 32 sinks). The procedure repeats until the queue
//! drains (§1 of the paper).
//!
//! This module reproduces that traversal on the host and records the
//! event counts ([`WalkEvents`]) the performance model consumes. One
//! loop, `traverse`, does it for both walks; they differ only in the
//! pivot the MAC measures distances from and in the flush kernel:
//! - [`walk_tree`], one pool task per warp-group: the group's bounding
//!   sphere and minimum |a_old|, with the sinks held in the lanes of a
//!   `SinkLanes` block that `accumulate_lanes` streams each list through;
//! - [`walk_tree_individual`], the per-particle ablation: a point pivot
//!   at the sink with its own |a_old|, flushed by the scalar `accumulate`.

use crate::mac::Mac;
use crate::tree::Octree;
use gpu_model::WalkEvents;
use nbody::kernel::{accumulate, accumulate_lanes, LaneSums, SinkLanes, Source, LANES};
use nbody::{Real, Vec3};

/// Lanes per warp — fixed by the hardware the paper targets, the width
/// of the flush's lane block, and the candidates examined per queue round.
pub const WARP_SIZE: usize = LANES;

/// Tree-walk parameters.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Acceptance criterion.
    pub mac: Mac,
    /// Squared Plummer softening.
    pub eps2: Real,
    /// Interaction-list capacity (shared-memory entries per warp in
    /// GOTHIC; flushing granularity here).
    pub list_cap: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            mac: Mac::fiducial(),
            eps2: 1e-4,
            list_cap: 256,
        }
    }
}

/// Acceleration + potential of the walked sinks, plus event counts.
#[derive(Clone, Debug)]
pub struct WalkResult {
    /// Acceleration per entry of `active` (same order).
    pub acc: Vec<Vec3>,
    /// Potential per entry of `active`.
    pub pot: Vec<Real>,
    pub events: WalkEvents,
}

/// Walk the tree for the sinks listed in `active` (indices into the
/// Morton-ordered particle arrays `pos` / `mass_arr`; `acc_old` provides
/// |a⁽ᵒˡᵈ⁾| for the acceleration MAC). `active` should be ascending so
/// that groups of 32 consecutive entries are spatially coherent — the
/// pipeline guarantees this by construction.
pub fn walk_tree(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    active: &[u32],
    cfg: &WalkConfig,
) -> WalkResult {
    assert_eq!(pos.len(), tree.keys.len());
    // One pool task per warp-group; the fixed WARP_SIZE chunking and the
    // serial chunk-ordered merge below keep the result bit-identical at
    // any thread count.
    let group_results: Vec<(LaneSums, WalkEvents)> =
        parallel::map_chunks(active, WARP_SIZE, |_, group| {
            walk_group(tree, pos, mass_arr, acc_old, group, cfg)
        });

    let (acc, pot) = group_results
        .iter()
        .flat_map(|(sums, _)| sums.iter())
        .map(|o| (o.acc, o.pot))
        .unzip();
    let mut events = WalkEvents::default();
    for (_, ge) in &group_results {
        events.merge(ge);
    }
    WalkResult { acc, pot, events }
}

/// Per-particle traversal — the ablation baseline against the warp-group
/// walk. It runs the same traversal as [`walk_tree`] once per sink, with
/// a point pivot (the sink itself and its own previous acceleration)
/// instead of the group-conservative one, and flushes through the scalar
/// `accumulate` (a one-lane block would compute 31 padding lanes per
/// source). It therefore evaluates *more* MACs per accepted cell but
/// needs *fewer* interactions in total; GOTHIC chooses the group walk
/// anyway because sharing one interaction list across 32 lanes is what
/// raises arithmetic intensity on a GPU (§1 of the paper).
/// `bench/bin/ablation_group_walk` quantifies the trade-off.
pub fn walk_tree_individual(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    active: &[u32],
    cfg: &WalkConfig,
) -> WalkResult {
    assert_eq!(pos.len(), tree.keys.len());
    let results: Vec<(Vec3, Real, WalkEvents)> = parallel::par_map(active, |&i| {
        let sink = pos[i as usize];
        let pivot = Pivot {
            center: sink,
            radius: 0.0,
            a_min: acc_old[i as usize],
        };
        let mut acc = Vec3::ZERO;
        let mut pot: Real = 0.0;
        let events = traverse(tree, pos, mass_arr, pivot, 1, cfg, |list| {
            let out = accumulate(sink, list, cfg.eps2);
            acc += out.acc;
            pot += out.pot;
        });
        (acc, pot, events)
    });

    let mut acc = Vec::with_capacity(active.len());
    let mut pot = Vec::with_capacity(active.len());
    let mut events = WalkEvents::default();
    for (a, p, e) in results {
        acc.push(a);
        pot.push(p);
        events.merge(&e);
    }
    WalkResult { acc, pot, events }
}

/// One warp-group's traversal; returns the group's sums in lane order.
fn walk_group(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    acc_old: &[Real],
    group: &[u32],
    cfg: &WalkConfig,
) -> (LaneSums, WalkEvents) {
    // Group pivot: bounding sphere of the sink positions, plus the
    // group-minimum previous acceleration (the warp shares one list, so
    // the MAC must hold for the *most demanding* member).
    let mut bb_min = Vec3::splat(Real::INFINITY);
    let mut bb_max = Vec3::splat(Real::NEG_INFINITY);
    let mut a_min = Real::INFINITY;
    for &i in group {
        let p = pos[i as usize];
        bb_min = bb_min.min(p);
        bb_max = bb_max.max(p);
        a_min = a_min.min(acc_old[i as usize]);
    }
    let center = (bb_min + bb_max) * 0.5;
    let mut radius: Real = 0.0;
    for &i in group {
        radius = radius.max((pos[i as usize] - center).norm());
    }
    let pivot = Pivot {
        center,
        radius,
        a_min,
    };

    // The warp's registers: one sink per lane, loaded once per group and
    // reused by every flush.
    let lanes = SinkLanes::load(group.iter().map(|&i| pos[i as usize]));
    let mut sums = LaneSums::zero(&lanes);
    let events = traverse(tree, pos, mass_arr, pivot, group.len(), cfg, |list| {
        sums.add(&accumulate_lanes(&lanes, list, cfg.eps2))
    });
    (sums, events)
}

/// Where a traversal measures MAC distances from: a sphere holding every
/// sink that shares the interaction list, and the smallest |a_old| among
/// them (the list must satisfy its most demanding member).
struct Pivot {
    center: Vec3,
    radius: Real,
    a_min: Real,
}

/// The breadth-first traversal shared by both walks, for `sinks` sinks
/// inside `pivot` that share one interaction list. `flush` integrates
/// Eq. 1 over a full (or the final partial) list for every sink, adding
/// a partial sum that starts from +0.0 to each running total.
fn traverse(
    tree: &Octree,
    pos: &[Vec3],
    mass_arr: &[Real],
    pivot: Pivot,
    sinks: usize,
    cfg: &WalkConfig,
    mut flush: impl FnMut(&[Source]),
) -> WalkEvents {
    let mut events = WalkEvents {
        groups: 1,
        sinks: sinks as u64,
        ..WalkEvents::default()
    };
    let mut list: Vec<Source> = Vec::with_capacity(cfg.list_cap);
    let mut drain = |list: &mut Vec<Source>, events: &mut WalkEvents| {
        events.flushes += 1;
        events.interactions += (sinks * list.len()) as u64;
        flush(list);
        list.clear();
    };
    let mut push = |src: Source, list: &mut Vec<Source>, events: &mut WalkEvents| {
        list.push(src);
        events.list_pushes += 1;
        if list.len() == cfg.list_cap {
            drain(list, events);
        }
    };

    // Breadth-first queue over node ids; `head` advances instead of
    // popping so `queue.len() - head` is the live buffer occupancy the
    // capacity model of §3 cares about.
    let mut queue: Vec<u32> = Vec::with_capacity(256);
    let mut head = 0usize;
    if tree.is_leaf(0) {
        // Degenerate tree: root is a single leaf.
        queue.push(0);
    } else {
        queue.extend(tree.children(0).map(|c| c as u32));
    }

    while head < queue.len() {
        let round_end = (head + WARP_SIZE).min(queue.len());
        events.queue_rounds += 1;
        for qi in head..round_end {
            let v = queue[qi] as usize;
            events.mac_evals += 1;
            let com = tree.com[v];
            let b = tree.bmax[v];
            // Worst-case sink distance to the node COM, and a separation
            // guard: the node's matter sphere must clear the pivot sphere
            // before a multipole is trusted at all.
            let d = (com - pivot.center).norm() - pivot.radius;
            let separated = d > b && d > 0.0;
            if separated && cfg.mac.accepts(tree.mass[v], b, d * d, pivot.a_min) {
                let cell = Source {
                    pos: com,
                    mass: tree.mass[v],
                };
                push(cell, &mut list, &mut events);
            } else if tree.is_leaf(v) {
                for p in tree.particles(v) {
                    let particle = Source {
                        pos: pos[p],
                        mass: mass_arr[p],
                    };
                    push(particle, &mut list, &mut events);
                }
            } else {
                events.opens += 1;
                queue.extend(tree.children(v).map(|c| c as u32));
            }
        }
        head = round_end;
        events.peak_queue_len = events.peak_queue_len.max((queue.len() - head) as u64);
    }

    // Final (partial) flush.
    if !list.is_empty() {
        drain(&mut list, &mut events);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calcnode::calc_node;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::direct::direct_parallel;
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn plummer_like(n: usize, seed: u64) -> ParticleSet {
        // Centrally-concentrated cloud (r ~ uniform³ gives a steep cusp).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let r = rng.random::<Real>().powi(3) * 2.0 + 1e-3;
            let th = (rng.random::<Real>() * 2.0 - 1.0).acos();
            let ph = rng.random::<Real>() * std::f32::consts::TAU;
            let p = Vec3::new(
                r * th.sin() * ph.cos(),
                r * th.sin() * ph.sin(),
                r * th.cos(),
            );
            ps.push(p, Vec3::ZERO, 1.0 / n as Real);
        }
        ps
    }

    type WalkFn = fn(&Octree, &[Vec3], &[Real], &[Real], &[u32], &WalkConfig) -> WalkResult;

    /// The two traversals, with the sinks each one walks at once.
    const WALKS: [(&str, WalkFn, u64); 2] = [
        ("walk_tree", walk_tree, WARP_SIZE as u64),
        ("walk_tree_individual", walk_tree_individual, 1),
    ];

    const EPS2: Real = 1e-6;

    /// Walk every sink of the fixture cloud with `walk`.
    fn walked(n: usize, mac: Mac, walk: WalkFn) -> (ParticleSet, WalkResult) {
        let mut ps = plummer_like(n, 42);
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        let cfg = WalkConfig {
            mac,
            eps2: EPS2,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        // Bootstrap a_old with 1 (irrelevant for OpeningAngle).
        let a_old = vec![1.0; n];
        let res = walk(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        (ps, res)
    }

    fn forces_fixture(n: usize, mac: Mac) -> (ParticleSet, WalkResult, Vec<Vec3>, Vec<Real>) {
        let (ps, res) = walked(n, mac, walk_tree);
        let sources: Vec<Source> = ps
            .pos
            .iter()
            .zip(&ps.mass)
            .map(|(&p, &m)| Source { pos: p, mass: m })
            .collect();
        let (dacc, dpot) = direct_parallel(&ps.pos, &sources, EPS2);
        (ps, res, dacc, dpot)
    }

    fn median_acc_error(res: &WalkResult, dacc: &[Vec3]) -> f64 {
        let mut errs: Vec<f64> = (0..dacc.len())
            .map(|i| ((res.acc[i] - dacc[i]).norm() / dacc[i].norm().max(1e-12)) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        errs[errs.len() / 2]
    }

    #[test]
    fn opening_angle_walk_approximates_direct() {
        let (_, res, dacc, _) = forces_fixture(2048, Mac::OpeningAngle { theta: 0.5 });
        let err = median_acc_error(&res, &dacc);
        assert!(err < 5e-3, "median relative error {err}");
    }

    #[test]
    fn acceleration_mac_error_tracks_delta_acc() {
        let mut last_err = f64::INFINITY;
        for exp in [-3, -6, -9, -12] {
            let mac = Mac::Acceleration {
                delta_acc: 2.0f32.powi(exp),
            };
            let (_, res, dacc, _) = forces_fixture(2048, mac);
            let err = median_acc_error(&res, &dacc);
            assert!(
                err < last_err * 1.05,
                "error must not grow as Δacc tightens: {err} after {last_err} (2^{exp})"
            );
            last_err = err;
        }
        // The tightest setting must be very accurate.
        assert!(last_err < 1e-4, "2^-12 error {last_err}");
    }

    #[test]
    fn fewer_interactions_at_looser_accuracy() {
        let loose = forces_fixture(2048, Mac::Acceleration { delta_acc: 0.25 }).1;
        let tight = forces_fixture(
            2048,
            Mac::Acceleration {
                delta_acc: 2.0f32.powi(-12),
            },
        )
        .1;
        assert!(
            loose.events.interactions < tight.events.interactions,
            "loose {} vs tight {}",
            loose.events.interactions,
            tight.events.interactions
        );
        // Both are far below the direct-sum pair count.
        assert!(tight.events.interactions < 2048 * 2048);
    }

    #[test]
    fn potential_matches_direct_sum() {
        let (_, res, _, dpot) = forces_fixture(1024, Mac::OpeningAngle { theta: 0.4 });
        let mut errs: Vec<f64> = (0..dpot.len())
            .map(|i| ((res.pot[i] - dpot[i]).abs() / dpot[i].abs()) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(
            errs[errs.len() / 2] < 2e-3,
            "median pot error {}",
            errs[errs.len() / 2]
        );
    }

    #[test]
    fn subset_walk_touches_only_active_sinks() {
        let mut ps = plummer_like(1024, 7);
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        let cfg = WalkConfig {
            mac: Mac::OpeningAngle { theta: 0.6 },
            ..Default::default()
        };
        let a_old = vec![1.0; 1024];
        let active: Vec<u32> = (0..1024).step_by(3).map(|i| i as u32).collect();
        let res = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        assert_eq!(res.acc.len(), active.len());
        assert_eq!(res.events.sinks, active.len() as u64);
        assert_eq!(res.events.groups, active.len().div_ceil(WARP_SIZE) as u64);
    }

    #[test]
    fn event_accounting_is_consistent() {
        for (name, walk, group_size) in WALKS {
            let (_, res) = walked(4096, Mac::fiducial(), walk);
            let ev = &res.events;
            // Every MAC eval either accepted (list push), opened, or
            // expanded a leaf (pushes ≥ evals − opens because leaves push
            // many).
            assert!(ev.mac_evals >= ev.opens, "{name}");
            assert!(ev.list_pushes > 0, "{name}");
            assert!(ev.flushes > 0, "{name}");
            // One traversal per group; interactions = group_size × pushes
            // (every sink of a full group sees every push).
            assert_eq!(ev.sinks, 4096, "{name}");
            assert_eq!(ev.groups * group_size, ev.sinks, "{name}");
            assert_eq!(ev.interactions, group_size * ev.list_pushes, "{name}");
            assert!(ev.queue_rounds >= ev.groups, "{name}");
            assert!(ev.peak_queue_len > 0, "{name}");
        }
    }

    /// FNV-1a 64 over the raw bits of every walked `acc` and `pot`.
    fn force_digest(res: &WalkResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = res
            .acc
            .iter()
            .flat_map(|a| [a.x, a.y, a.z])
            .chain(res.pot.iter().copied());
        for w in words {
            for byte in w.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn walk_forces_match_pinned_digest() {
        // Any change to Eq. 1's arithmetic or to the per-sink summation
        // order shows here; the bits must hold at any thread count.
        let pinned = [0x74be_8095_c012_53d7, 0xede6_8a0e_99e4_a746];
        for ((name, walk, _), want) in WALKS.into_iter().zip(pinned) {
            let (_, res) = walked(4096, Mac::fiducial(), walk);
            assert_eq!(force_digest(&res), want, "{name} force digest changed");
        }
    }

    #[test]
    fn forces_antisymmetric_enough_for_momentum() {
        // Tree forces are not exactly antisymmetric, but the net force
        // must be small relative to the typical force magnitude.
        let (ps, res, _, _) = forces_fixture(2048, Mac::fiducial());
        let mut net = [0.0f64; 3];
        let mut scale = 0.0f64;
        for i in 0..ps.len() {
            let f = (res.acc[i] * ps.mass[i]).as_f64();
            for k in 0..3 {
                net[k] += f[k];
            }
            scale += (res.acc[i].norm() * ps.mass[i]) as f64;
        }
        let mag = (net[0].powi(2) + net[1].powi(2) + net[2].powi(2)).sqrt();
        assert!(mag < 1e-2 * scale, "net {mag} vs scale {scale}");
    }
}

#[cfg(test)]
mod individual_tests {
    use super::*;
    use crate::calcnode::calc_node;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::direct::direct_parallel;
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn fixture(n: usize) -> (ParticleSet, Octree) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let r = rng.random::<Real>().powi(2) * 3.0 + 1e-3;
            let th = (rng.random::<Real>() * 2.0 - 1.0).acos();
            let phi = rng.random::<Real>() * std::f32::consts::TAU;
            ps.push(
                Vec3::new(
                    r * th.sin() * phi.cos(),
                    r * th.sin() * phi.sin(),
                    r * th.cos(),
                ),
                Vec3::ZERO,
                1.0 / n as Real,
            );
        }
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        calc_node(&mut tree, &ps.pos, &ps.mass);
        (ps, tree)
    }

    #[test]
    fn individual_walk_matches_direct() {
        let n = 2048;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-10),
            },
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let res = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let sources: Vec<Source> = ps
            .pos
            .iter()
            .zip(&ps.mass)
            .map(|(&p, &m)| Source { pos: p, mass: m })
            .collect();
        let (dacc, _) = direct_parallel(&ps.pos, &sources, 1e-5);
        let mut errs: Vec<f64> = (0..n)
            .map(|i| ((res.acc[i] - dacc[i]).norm() / dacc[i].norm().max(1e-12)) as f64)
            .collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(errs[n / 2] < 2e-3, "median error {}", errs[n / 2]);
    }

    #[test]
    fn group_walk_trades_interactions_for_shared_lists() {
        // The design trade-off of §1: the group walk evaluates fewer MACs
        // (one traversal per 32 sinks) but performs more interactions
        // (every accepted cell hits all 32 sinks); the individual walk is
        // the mirror image.
        let n = 4096;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::fiducial(),
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let group = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let indiv = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        assert!(
            group.events.mac_evals < indiv.events.mac_evals,
            "group {} vs individual {} MAC evals",
            group.events.mac_evals,
            indiv.events.mac_evals
        );
        assert!(
            group.events.interactions > indiv.events.interactions,
            "group {} vs individual {} interactions",
            group.events.interactions,
            indiv.events.interactions
        );
    }

    #[test]
    fn both_walks_agree_with_each_other() {
        let n = 1024;
        let (ps, tree) = fixture(n);
        let cfg = WalkConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-12),
            },
            eps2: 1e-5,
            ..WalkConfig::default()
        };
        let active: Vec<u32> = (0..n as u32).collect();
        let a_old = vec![1.0; n];
        let g = walk_tree(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        let i = walk_tree_individual(&tree, &ps.pos, &ps.mass, &a_old, &active, &cfg);
        for k in 0..n {
            let rel = (g.acc[k] - i.acc[k]).norm() / g.acc[k].norm().max(1e-12);
            // Both are approximations with *independent* acceptance sets;
            // they agree to the MAC error scale, not bitwise.
            assert!(rel < 2e-2, "sink {k}: group vs individual differ by {rel}");
        }
    }
}
