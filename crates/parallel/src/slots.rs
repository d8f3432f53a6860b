//! Disjoint-write result slots for the deterministic reduction.
//!
//! Same idiom as `devsort::scatter::SyncWriteSlice`: the pool's safety
//! argument is that chunk indices are claimed exactly once, so writes
//! to the slot vector are disjoint by construction and the `unsafe` is
//! confined to two small, auditable methods.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// A fixed-size vector of write-once result slots shared across the
/// pool's workers.
pub(crate) struct SlotWriter<U> {
    slots: UnsafeCell<Vec<MaybeUninit<U>>>,
    len: usize,
}

// Safety: workers only call `write` on disjoint indices (the pool's
// claim protocol hands out each index exactly once), and `into_vec`
// runs after the region has joined every worker.
unsafe impl<U: Send> Sync for SlotWriter<U> {}

impl<U> SlotWriter<U> {
    pub(crate) fn new(len: usize) -> Self {
        let mut slots = Vec::with_capacity(len);
        // Safety: MaybeUninit contents may be uninitialised.
        unsafe { slots.set_len(len) };
        SlotWriter {
            slots: UnsafeCell::new(slots),
            len,
        }
    }

    /// Write slot `i`.
    ///
    /// # Safety
    /// Each index must be written at most once, with no concurrent
    /// writes to the same index and no reads before [`Self::into_vec`].
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, value: U) {
        debug_assert!(i < self.len);
        let slots = &mut *self.slots.get();
        slots.get_unchecked_mut(i).write(value);
    }

    /// Take the fully initialised results, in slot order.
    ///
    /// # Safety
    /// Every slot in `0..len` must have been written, and all writers
    /// must have been joined.
    pub(crate) unsafe fn into_vec(self) -> Vec<U> {
        let slots = self.slots.into_inner();
        // Vec<MaybeUninit<U>> and Vec<U> share layout; every element is
        // initialised per the caller contract.
        let mut slots = std::mem::ManuallyDrop::new(slots);
        Vec::from_raw_parts(slots.as_mut_ptr() as *mut U, self.len, slots.capacity())
    }
}

/// A raw pointer that may cross into the workers of a region.
///
/// Safety rests with the user: the pool only dereferences it at
/// indices inside the chunk it claimed, and chunks are disjoint.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
