//! The resident workers behind [`crate::run_chunked`].
//!
//! Worker threads are spawned lazily, up to the largest count any region
//! has asked for, and then stay on their core between regions, spinning
//! on their own mailbox — the host analogue of GOTHIC's resident thread
//! blocks, which meet at grid barriers instead of being relaunched per
//! tree level. A worker that gets no task for [`SPIN`] exits, and the
//! next region that needs it spawns it again.
//!
//! Workers never sleep on a condvar. A woken thread is placed by the
//! scheduler's wake-up path, which may put it on its waker's core even
//! when another core is idle; on a 2-vCPU VM that happened to nearly
//! every woken worker, so regions ran on one core. A spawned thread is
//! placed on the least loaded core instead.
//!
//! One region owns the workers at a time. Ownership is the lock on the
//! worker list, taken with `try_lock`: a caller that finds it held (a
//! second `gothicd` job, or a region nested inside a chunk) gets `None`
//! and runs its chunks inline, so nothing ever blocks on the pool. That
//! also tells the workers the cores are contended: for [`BUSY_WINDOW`]
//! they exit when idle rather than spin.
//!
//! A region hands every engaged worker a pointer to the caller's
//! per-worker entry point, whose lifetime is erased. That is sound only
//! because the caller cannot leave the region before each engaged worker
//! has reported back: [`Region`] waits in its `Drop`, so the wait also
//! happens while the caller's own chunk unwinds.

use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// A region's per-worker entry point: `work(worker_index)`.
pub(crate) type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// How long an idle worker waits for its next task before it exits.
/// The regions of one block step come closer together than this.
const SPIN: Duration = Duration::from_millis(2);

/// For this long after a caller found the workers busy, idle workers
/// exit at once instead of spinning: with concurrent callers (two
/// `gothicd` jobs) every core has a runnable thread, and a spinning
/// worker would take turns on a core from the inline caller.
const BUSY_WINDOW: Duration = Duration::from_millis(100);

/// When a caller last found the workers busy, in ns since `epoch()`
/// plus one; 0 means never.
static LAST_BUSY: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The idle worker's spin budget: [`SPIN`], or zero within
/// [`BUSY_WINDOW`] of a caller finding the workers busy.
fn idle_budget() -> Duration {
    let busy_at = LAST_BUSY.load(Ordering::Relaxed);
    let busy_since = Duration::from_nanos(busy_at.saturating_sub(1));
    if busy_at != 0 && epoch().elapsed() < busy_since + BUSY_WINDOW {
        Duration::ZERO
    } else {
        SPIN
    }
}

/// Poll `ready`, yielding the core to any other runnable thread in
/// between, until it holds or `limit` has passed.
fn spin_until(limit: Option<Duration>, ready: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !ready() && limit.is_none_or(|l| t0.elapsed() < l) {
        std::thread::yield_now();
    }
}

/// What the caller hands one worker.
struct Task {
    work: *const Work<'static>,
    me: usize,
}

// SAFETY: `Work` is `Sync`, so sharing the pointee across threads is
// fine; the pointer is only dereferenced while the dispatching region is
// still waiting for this worker (see `Region`).
unsafe impl Send for Task {}

struct State {
    /// Set by the caller, taken by the worker when it starts.
    task: Option<Task>,
    /// Set by the worker when its task has returned or unwound.
    outcome: Option<std::thread::Result<()>>,
    /// No thread serves this mailbox (not spawned yet, or exited idle).
    vacant: bool,
}

/// One resident worker's mailbox.
struct Slot {
    state: Mutex<State>,
    /// `state.task` is set: lets the spinning worker poll without the lock.
    posted: AtomicBool,
    /// `state.outcome` is set: lets the spinning caller poll likewise.
    finished: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static WORKERS: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

fn serve(slot: &Slot) {
    loop {
        spin_until(Some(idle_budget()), || slot.posted.load(Ordering::Acquire));
        let task = {
            let mut st = lock(&slot.state);
            match st.task.take() {
                Some(task) => task,
                None => {
                    st.vacant = true;
                    return;
                }
            }
        };
        slot.posted.store(false, Ordering::Relaxed);
        let outcome = {
            // SAFETY: the region that assigned this task is blocked in
            // `Region::wait` until `finished` is raised below, so the
            // entry point (on the caller's stack) is alive for this call.
            let work = unsafe { &*task.work };
            panic::catch_unwind(AssertUnwindSafe(|| work(task.me)))
        };
        lock(&slot.state).outcome = Some(outcome);
        slot.finished.store(true, Ordering::Release);
    }
}

/// The resident workers, owned by one region.
pub(crate) struct Crew(MutexGuard<'static, Vec<Arc<Slot>>>);

/// Take the workers, growing them to at least `n` mailboxes, or `None`
/// when another region holds them.
pub(crate) fn acquire(n: usize) -> Option<Crew> {
    let mut slots = match WORKERS.try_lock() {
        Ok(g) => g,
        // A region whose caller chunk panicked still waited for its
        // workers before releasing them, so the list is consistent.
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let now = epoch().elapsed().as_nanos() as u64;
            LAST_BUSY.store(now + 1, Ordering::Relaxed);
            return None;
        }
    };
    while slots.len() < n {
        slots.push(Arc::new(Slot {
            state: Mutex::new(State {
                task: None,
                outcome: None,
                vacant: true,
            }),
            posted: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        }));
    }
    Some(Crew(slots))
}

impl Crew {
    /// Run `work(1)`, …, `work(n)` on the first `n` workers. The caller
    /// typically runs `work(0)` itself, then [`Region::join`]s.
    pub(crate) fn dispatch<'a>(self, n: usize, work: &'a Work<'a>) -> Region<'a> {
        // SAFETY: only the lifetime is erased. Workers dereference the
        // pointer until they report back, and the returned `Region`
        // (which borrows `work` for 'a) waits for that in `Drop`.
        let work: *const Work<'static> =
            unsafe { std::mem::transmute::<*const Work<'a>, *const Work<'static>>(work) };
        let mut region = Region {
            crew: self,
            engaged: 0,
            _work: PhantomData,
        };
        for me in 1..=n {
            let slot = &region.crew.0[me - 1];
            let mut st = lock(&slot.state);
            if st.vacant {
                let mine = Arc::clone(slot);
                std::thread::Builder::new()
                    .name(format!("gothic-pool-{me}"))
                    .spawn(move || serve(&mine))
                    .expect("spawn pool worker");
                st.vacant = false;
            }
            st.task = Some(Task { work, me });
            slot.posted.store(true, Ordering::Release);
            drop(st);
            region.engaged = me;
        }
        region
    }
}

/// A dispatched region: holds the workers until every engaged one has
/// finished.
pub(crate) struct Region<'a> {
    crew: Crew,
    engaged: usize,
    _work: PhantomData<&'a Work<'a>>,
}

impl Region<'_> {
    /// Wait for the engaged workers; re-panic with the first worker
    /// panic's original payload.
    pub(crate) fn join(mut self) {
        if let Err(payload) = self.wait() {
            panic::resume_unwind(payload);
        }
    }

    fn wait(&mut self) -> std::thread::Result<()> {
        let mut first = Ok(());
        for slot in &self.crew.0[..self.engaged] {
            // Like a grid barrier: no sleeping, so the caller keeps its
            // core for the next region.
            spin_until(None, || slot.finished.load(Ordering::Acquire));
            slot.finished.store(false, Ordering::Relaxed);
            let outcome = lock(&slot.state).outcome.take();
            let outcome = outcome.expect("a finished worker left its outcome");
            if first.is_ok() {
                first = outcome;
            }
        }
        self.engaged = 0;
        first
    }
}

impl Drop for Region<'_> {
    fn drop(&mut self) {
        // Reached with workers still engaged only while the caller's own
        // chunk unwinds; that panic wins over any worker's.
        let _ = self.wait();
    }
}
