//! Contract of the resident pool behind `parallel::run_chunked`: panics
//! reach the caller with their payload and leave the pool usable, a busy
//! pool makes a second caller run inline instead of waiting, nested
//! regions complete, and `with_thread_count` caps the threads a region
//! engages.
//!
//! Every test holds `telemetry::sink::test_lock`: a region running in
//! another test would hold the workers and turn these regions inline.

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use parallel::{map_range, run_chunked, with_thread_count};

struct WorkerPanic(usize);
struct CallerPanic;

/// Wait (10 s at most) until `ready` holds.
fn wait_until(ready: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !ready() && t0.elapsed() < Duration::from_secs(10) {
        thread::yield_now();
    }
}

/// Sum `0..n` over a `threads`-wide region; also returns how many
/// distinct threads took chunks. Above one thread, the first thread to
/// take a chunk waits for a second, so a region that really runs on
/// workers never reports a single thread.
fn sum_region(threads: usize, n: usize) -> (usize, usize) {
    let sum = AtomicUsize::new(0);
    let ids = Mutex::new(HashSet::new());
    with_thread_count(threads, || {
        run_chunked(n, |i| {
            let first = {
                let mut ids = ids.lock().unwrap();
                ids.insert(thread::current().id());
                ids.len() == 1
            };
            if first && threads > 1 {
                wait_until(|| ids.lock().unwrap().len() > 1);
            }
            thread::sleep(Duration::from_micros(100));
            sum.fetch_add(i, Ordering::Relaxed);
        })
    });
    let engaged = ids.into_inner().unwrap().len();
    (sum.into_inner(), engaged)
}

fn assert_pool_usable() {
    let (sum, engaged) = sum_region(2, 64);
    assert_eq!(sum, 64 * 63 / 2);
    assert_eq!(engaged, 2, "the next region must run on a worker again");
}

#[test]
fn worker_panic_reaches_the_caller_with_its_payload() {
    let _g = telemetry::sink::test_lock();
    let caller = thread::current().id();
    let worker_took_one = AtomicBool::new(false);
    let err = panic::catch_unwind(|| {
        with_thread_count(2, || {
            run_chunked(64, |i| {
                if thread::current().id() != caller {
                    worker_took_one.store(true, Ordering::SeqCst);
                    panic::panic_any(WorkerPanic(i));
                }
                wait_until(|| worker_took_one.load(Ordering::SeqCst));
            })
        })
    })
    .expect_err("a worker's panic must reach the caller");
    let WorkerPanic(chunk) = err.downcast_ref::<WorkerPanic>().expect("original payload");
    assert!(*chunk < 64);
    assert_pool_usable();
}

#[test]
fn caller_panic_unwinds_only_after_every_started_chunk_finished() {
    let _g = telemetry::sink::test_lock();
    let caller = thread::current().id();
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        with_thread_count(2, || {
            run_chunked(64, |_| {
                started.fetch_add(1, Ordering::SeqCst);
                if thread::current().id() == caller {
                    panic::panic_any(CallerPanic);
                }
                thread::sleep(Duration::from_millis(1));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        })
    }))
    .expect_err("the caller's panic must propagate");
    // Read at the moment the unwind is observed: only the chunk that
    // panicked is unfinished.
    let (started, finished) = (
        started.load(Ordering::SeqCst),
        finished.load(Ordering::SeqCst),
    );
    assert_eq!(
        started,
        finished + 1,
        "a worker chunk outlived the caller's unwind"
    );
    // The caller panicked in its first chunk: the worker stops claiming
    // instead of running the rest of the 64.
    assert!(
        started < 32,
        "{started} of 64 chunks started after the panic"
    );
    assert!(
        err.downcast_ref::<CallerPanic>().is_some(),
        "original payload"
    );
    assert_pool_usable();
}

#[test]
fn a_caller_that_finds_the_pool_busy_runs_inline() {
    let _g = telemetry::sink::test_lock();
    let barrier = Barrier::new(2);
    let started = AtomicUsize::new(0);
    let region = || {
        let entered = AtomicBool::new(false);
        let overlapped = AtomicBool::new(false);
        let sum = AtomicUsize::new(0);
        let ids = Mutex::new(HashSet::new());
        with_thread_count(2, || {
            barrier.wait();
            run_chunked(256, |i| {
                // The first chunk of each region waits until the other
                // region has started too, so the two surely overlap: if
                // a caller blocked on the busy pool, this would time out.
                if !entered.swap(true, Ordering::SeqCst) {
                    started.fetch_add(1, Ordering::SeqCst);
                    wait_until(|| started.load(Ordering::SeqCst) == 2);
                    overlapped.store(started.load(Ordering::SeqCst) == 2, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_micros(100));
                ids.lock().unwrap().insert(thread::current().id());
                sum.fetch_add(i, Ordering::Relaxed);
            })
        });
        let engaged = ids.into_inner().unwrap().len();
        (sum.into_inner(), engaged, overlapped.into_inner())
    };
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(region);
        let b = s.spawn(region);
        (a.join().unwrap(), b.join().unwrap())
    });
    for (sum, _, overlapped) in [a, b] {
        assert!(overlapped, "the two regions did not run at the same time");
        assert_eq!(sum, 256 * 255 / 2);
    }
    // The workers serve one region at a time, so while both ran, one of
    // them had its caller alone.
    assert!(a.1 == 1 || b.1 == 1, "neither region ran inline");
}

#[test]
fn a_region_nested_in_a_chunk_completes() {
    let _g = telemetry::sink::test_lock();
    let total = AtomicUsize::new(0);
    with_thread_count(2, || {
        run_chunked(8, |i| {
            let inner: usize = map_range(0..4096, |j| j * i).iter().sum();
            total.fetch_add(inner, Ordering::Relaxed);
        })
    });
    let per_unit: usize = (0..4096).sum();
    assert_eq!(total.into_inner(), per_unit * (0..8).sum::<usize>());
}

#[test]
fn no_region_engages_more_threads_than_its_count() {
    let _g = telemetry::sink::test_lock();
    // Grow the pool to 7 workers first, so the cap, not the pool's
    // size, is what limits the smaller regions.
    assert!(sum_region(8, 256).1 > 1);
    for n in [2, 3, 4] {
        let (sum, engaged) = sum_region(n, 256);
        assert_eq!(sum, 256 * 255 / 2);
        assert!(engaged > 1, "{n}-thread region ran on one thread");
        assert!(engaged <= n, "{n}-thread region engaged {engaged} threads");
    }
    assert_eq!(sum_region(1, 256).1, 1);
}
