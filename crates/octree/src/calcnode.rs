//! Bottom-up node summaries — the `calcNode` kernel of Table 2.
//!
//! Computes, for every tree node, the total mass, the centre of mass and
//! the bounding radius `b_J` of its matter (the "size of the group of
//! distant particles" in the MAC, Eq. 2). GOTHIC processes the tree level
//! by level from the leaves upward, separating levels with grid-wide
//! synchronizations (21 per step on the M31 model — Appendix A), and the
//! modeled event counts keep that shape (`grid_syncs`). The host runs it
//! in two passes instead: one pool pass summarises every leaf straight
//! from its particles, whatever its level — nearly all of the work — and
//! a serial bottom-up pass folds the few internal nodes from their
//! children. Each node's arithmetic and summation order are those of the
//! level-by-level schedule, so the summaries are bit-identical to it.

use crate::tree::{Octree, NO_CHILD};
use gpu_model::CalcNodeEvents;
use nbody::{Real, Vec3};

/// Centre of mass from an accumulated mass and mass-weighted position.
fn centre(m: f64, c: [f64; 3]) -> Vec3 {
    if m > 0.0 {
        Vec3::new((c[0] / m) as Real, (c[1] / m) as Real, (c[2] / m) as Real)
    } else {
        Vec3::ZERO
    }
}

/// `(com, mass, bmax)` of one leaf's particles.
fn leaf_summary(pos: &[Vec3], mass: &[Real]) -> (Vec3, Real, Real) {
    let mut m = 0.0f64;
    let mut c = [0.0f64; 3];
    for (p, &pm) in pos.iter().zip(mass) {
        let pm = pm as f64;
        m += pm;
        c[0] += pm * p.x as f64;
        c[1] += pm * p.y as f64;
        c[2] += pm * p.z as f64;
    }
    let com = centre(m, c);
    // Bounding radius of the node's matter around the COM.
    let b = pos
        .iter()
        .fold(0.0 as Real, |b, p| b.max((*p - com).norm()));
    (com, m as Real, b)
}

/// Fill `tree.com`, `tree.mass`, `tree.bmax`. `pos`/`mass` must be the
/// Morton-ordered particle arrays the tree was built over. Returns the
/// event counts for the performance model.
pub fn calc_node(tree: &mut Octree, pos: &[Vec3], mass: &[Real]) -> CalcNodeEvents {
    assert_eq!(pos.len(), tree.keys.len());
    let n_nodes = tree.n_nodes();

    // Pass 1 (pool): every leaf from its own particles. Internal nodes
    // get a placeholder that pass 2 overwrites.
    let Octree {
        child_start,
        child_count,
        pstart,
        pcount,
        com,
        mass: node_mass,
        bmax,
        ..
    } = tree;
    let leaves: Vec<(Vec3, Real, Real)> = parallel::map_range(0..n_nodes, |v| {
        if child_start[v] != NO_CHILD {
            return (Vec3::ZERO, 0.0, 0.0);
        }
        let range = pstart[v] as usize..(pstart[v] + pcount[v]) as usize;
        leaf_summary(&pos[range.clone()], &mass[range])
    });

    // Pass 2 (serial): the breadth-first layout gives children larger
    // ids than their parent, so descending ids reach every child first.
    let mut accum = 0u64;
    for v in (0..n_nodes).rev() {
        if child_start[v] == NO_CHILD {
            (com[v], node_mass[v], bmax[v]) = leaves[v];
            accum += pcount[v] as u64;
            continue;
        }
        let kids = child_start[v] as usize..child_start[v] as usize + child_count[v] as usize;
        let mut m = 0.0f64;
        let mut c = [0.0f64; 3];
        for ci in kids.clone() {
            let cm = node_mass[ci] as f64;
            let cc = com[ci];
            m += cm;
            c[0] += cm * cc.x as f64;
            c[1] += cm * cc.y as f64;
            c[2] += cm * cc.z as f64;
        }
        let centre = centre(m, c);
        let mut b: Real = 0.0;
        for ci in kids.clone() {
            b = b.max((com[ci] - centre).norm() + bmax[ci]);
        }
        (com[v], node_mass[v], bmax[v]) = (centre, m as Real, b);
        accum += kids.len() as u64;
    }

    CalcNodeEvents {
        nodes: n_nodes as u64,
        child_accumulations: accum,
        levels: tree.n_levels() as u64,
        // One grid barrier after every level pass, plus the initial leaf
        // pass — matching GOTHIC's per-step count (~ tree depth).
        grid_syncs: tree.n_levels() as u64 + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{build_tree, BuildConfig};
    use nbody::ParticleSet;
    use prng::prelude::*;

    fn tree_fixture(n: usize, seed: u64) -> (ParticleSet, Octree, CalcNodeEvents) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParticleSet::with_capacity(n);
        for _ in 0..n {
            let p = Vec3::new(rng.random(), rng.random(), rng.random());
            ps.push(p, Vec3::ZERO, rng.random::<Real>() + 0.1);
        }
        let mut tree = build_tree(&mut ps, &BuildConfig::default());
        let ev = calc_node(&mut tree, &ps.pos, &ps.mass);
        (ps, tree, ev)
    }

    #[test]
    fn root_mass_equals_total_mass() {
        let (ps, tree, _) = tree_fixture(3000, 1);
        let total = ps.total_mass();
        assert!(
            ((tree.mass[0] as f64 - total) / total).abs() < 1e-5,
            "root {} vs total {}",
            tree.mass[0],
            total
        );
    }

    #[test]
    fn root_com_matches_direct_computation() {
        let (ps, tree, _) = tree_fixture(2000, 2);
        let mut c = [0.0f64; 3];
        let mut m = 0.0f64;
        for i in 0..ps.len() {
            let pm = ps.mass[i] as f64;
            m += pm;
            c[0] += pm * ps.pos[i].x as f64;
            c[1] += pm * ps.pos[i].y as f64;
            c[2] += pm * ps.pos[i].z as f64;
        }
        for (k, want) in c.iter().enumerate() {
            let got = tree.com[0][k] as f64 * m;
            assert!((got - want).abs() / want.abs().max(1e-9) < 1e-4);
        }
    }

    #[test]
    fn every_internal_node_mass_is_sum_of_children() {
        let (_, tree, _) = tree_fixture(4000, 3);
        for v in 0..tree.n_nodes() {
            if tree.is_leaf(v) {
                continue;
            }
            let kids_mass: f64 = tree.children(v).map(|c| tree.mass[c] as f64).sum();
            let rel = ((tree.mass[v] as f64 - kids_mass) / kids_mass).abs();
            assert!(rel < 1e-5, "node {v}");
        }
    }

    #[test]
    fn bmax_bounds_all_subtree_particles() {
        let (ps, tree, _) = tree_fixture(2500, 4);
        for v in 0..tree.n_nodes() {
            let com = tree.com[v];
            let b = tree.bmax[v];
            for p in tree.particles(v) {
                let d = (ps.pos[p] - com).norm();
                assert!(
                    d <= b * (1.0 + 1e-4) + 1e-6,
                    "particle {p} at {d} beyond bmax {b} of node {v}"
                );
            }
        }
    }

    #[test]
    fn bmax_is_within_cell_diagonal() {
        // The bounding radius never exceeds (much) the cell diagonal —
        // sanity against runaway accumulation.
        let (_, tree, _) = tree_fixture(2500, 5);
        for v in 0..tree.n_nodes() {
            let diag = tree.cell_half[v] * 2.0 * 3.0f32.sqrt();
            assert!(tree.bmax[v] <= diag * 1.01, "node {v}");
        }
    }

    #[test]
    fn events_count_levels_and_pairs() {
        let (_, tree, ev) = tree_fixture(3000, 6);
        assert_eq!(ev.levels as usize, tree.n_levels());
        assert_eq!(ev.grid_syncs as usize, tree.n_levels() + 1);
        assert_eq!(ev.nodes, tree.n_nodes() as u64);
        // Pairs: every particle counted once at its leaf + every child
        // link once.
        let internal_links: u64 = (0..tree.n_nodes())
            .filter(|&v| !tree.is_leaf(v))
            .map(|v| tree.child_count[v] as u64)
            .sum();
        assert_eq!(ev.child_accumulations, 3000 + internal_links);
    }

    #[test]
    fn singleton_leaf_has_zero_bmax() {
        let mut ps = ParticleSet::with_capacity(2);
        ps.push(Vec3::ZERO, Vec3::ZERO, 1.0);
        ps.push(Vec3::splat(1.0), Vec3::ZERO, 1.0);
        let mut tree = build_tree(&mut ps, &BuildConfig { leaf_cap: 1 });
        calc_node(&mut tree, &ps.pos, &ps.mass);
        for v in 0..tree.n_nodes() {
            if tree.is_leaf(v) && tree.pcount[v] == 1 {
                assert_eq!(tree.bmax[v], 0.0);
            }
        }
    }
}
