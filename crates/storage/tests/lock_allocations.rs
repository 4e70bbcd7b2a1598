//! The lock manager's acquire/release cycle allocates nothing once warm.
//! A transaction's first grant takes its held-lock list from a pool and
//! its release returns the list there. Without the pool every
//! transaction allocates a list, which made the benchmark's
//! `dense-full` workload 9 % slower (DESIGN.md §8 has the ablation).
//!
//! A counting `#[global_allocator]` is process-wide, so this file holds
//! exactly one test.

use repl_storage::{Acquire, LockManager, ObjectId, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic that publishes
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn uncontended_transactions_allocate_nothing_after_warm_up() {
    // Monotone ids, eight alive at once, four locks each on objects
    // nobody else touches.
    const LIVE: u64 = 8;
    const WARM_UP: u64 = 1_000;
    const MEASURED: u64 = 10_000;
    let mut lm = LockManager::new();
    let mut granted = Vec::new();
    let mut step = |lm: &mut LockManager, t: u64| {
        if t >= LIVE {
            lm.release_all_into(TxnId(t - LIVE), &mut granted);
            assert!(granted.is_empty());
        }
        for k in 0..4 {
            let obj = ObjectId((t % LIVE) * 4 + k);
            assert_eq!(lm.acquire(TxnId(t), obj), Acquire::Granted);
        }
    };
    for t in 0..WARM_UP {
        step(&mut lm, t);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for t in WARM_UP..WARM_UP + MEASURED {
        step(&mut lm, t);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(lm.locked_objects(), (LIVE * 4) as usize);
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {MEASURED} warm transactions"
    );
}
