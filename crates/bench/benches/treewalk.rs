//! Benchmarks of the tree walk across accuracy settings and MAC
//! flavours — the host-side analogue of the paper's Δacc sweep.

use gothic::galaxy::plummer_model;
use gothic::octree::{build_tree, calc_node, walk_tree, BuildConfig, Mac, Octree, WalkConfig};
use std::hint::black_box;
use testkit::bench::Suite;

fn fixture(n: usize) -> (gothic::nbody::ParticleSet, Octree) {
    let mut ps = plummer_model(n, 100.0, 1.0, 42);
    let mut tree = build_tree(&mut ps, &BuildConfig::default());
    calc_node(&mut tree, &ps.pos, &ps.mass);
    (ps, tree)
}

fn bench_walk_vs_accuracy(s: &mut Suite) {
    let n = 8192;
    let (ps, tree) = fixture(n);
    let active: Vec<u32> = (0..n as u32).collect();
    let a_old = vec![1.0f32; n];
    for exp in [1i32, 6, 9, 14] {
        let cfg = WalkConfig {
            mac: Mac::Acceleration {
                delta_acc: 2.0f32.powi(-exp),
            },
            eps2: 1e-4,
            ..WalkConfig::default()
        };
        s.bench(format!("walk_vs_delta_acc/2^-{exp}"), || {
            walk_tree(black_box(&tree), &ps.pos, &ps.mass, &a_old, &active, &cfg)
        });
    }
}

fn bench_walk_mac_flavours(s: &mut Suite) {
    let n = 8192;
    let (ps, tree) = fixture(n);
    let active: Vec<u32> = (0..n as u32).collect();
    let a_old = vec![1.0f32; n];
    for (label, mac) in [
        ("opening_angle_0.5", Mac::OpeningAngle { theta: 0.5 }),
        ("acceleration_2^-9", Mac::fiducial()),
    ] {
        let cfg = WalkConfig {
            mac,
            eps2: 1e-4,
            ..WalkConfig::default()
        };
        s.bench(format!("walk_mac_flavours/{label}"), || {
            walk_tree(black_box(&tree), &ps.pos, &ps.mass, &a_old, &active, &cfg)
        });
    }
}

fn bench_walk_list_capacity(s: &mut Suite) {
    // The interaction-list capacity is GOTHIC's arithmetic-intensity
    // lever (§1): larger lists amortise traversal overhead.
    let n = 8192;
    let (ps, tree) = fixture(n);
    let active: Vec<u32> = (0..n as u32).collect();
    let a_old = vec![1.0f32; n];
    for cap in [32usize, 256, 1024] {
        let cfg = WalkConfig {
            mac: Mac::fiducial(),
            eps2: 1e-4,
            list_cap: cap,
        };
        s.bench(format!("walk_list_capacity/{cap}"), || {
            walk_tree(black_box(&tree), &ps.pos, &ps.mass, &a_old, &active, &cfg)
        });
    }
}

fn main() {
    let mut s = Suite::new("treewalk");
    bench_walk_vs_accuracy(&mut s);
    bench_walk_mac_flavours(&mut s);
    bench_walk_list_capacity(&mut s);
    s.finish();
}
