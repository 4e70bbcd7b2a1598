//! Micro-benchmarks of the hot paths every experiment leans on: the
//! lock manager, the timestamp test, the event queue, and the samplers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use repl_sim::{AccessPattern, EventQueue, Sampler, SimRng, SimTime};
use repl_storage::{LockManager, NodeId, ObjectId, ObjectStore, Timestamp, TxnId, Value};
use std::hint::black_box;

fn bench_lock_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_manager");
    g.bench_function("acquire_release_uncontended", |b| {
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                for i in 0..100u64 {
                    let txn = TxnId(i);
                    for j in 0..4u64 {
                        lm.acquire(txn, ObjectId(i * 4 + j));
                    }
                    lm.release_all(txn);
                }
                lm
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("release_all_into_recycled", |b| {
        // Same workload as acquire_release_uncontended but with the
        // caller-owned grant buffer — the steady-state engine release
        // path.
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                let mut granted = Vec::new();
                for i in 0..100u64 {
                    let txn = TxnId(i);
                    for j in 0..4u64 {
                        lm.acquire(txn, ObjectId(i * 4 + j));
                    }
                    lm.release_all_into(txn, &mut granted);
                }
                lm
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("monotone_ids_100k", |b| {
        // The contention engine's id scheme: a counter that never
        // reuses an id, 64 transactions alive at a time. The tables
        // must stay a 64-wide ring; indexed by the id they would grow,
        // and allocate a held list, once per transaction.
        b.iter_batched(
            LockManager::new,
            |mut lm| {
                let mut granted = Vec::new();
                for i in 0..100_000u64 {
                    if i >= 64 {
                        lm.release_all_into(TxnId(i - 64), &mut granted);
                    }
                    for j in 0..4u64 {
                        lm.acquire(TxnId(i), ObjectId((i % 64) * 4 + j));
                    }
                }
                lm
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("acquire_with_waiters", |b| {
        b.iter_batched(
            || {
                let mut lm = LockManager::new();
                lm.acquire(TxnId(0), ObjectId(0));
                lm
            },
            |mut lm| {
                for i in 1..50u64 {
                    lm.acquire(TxnId(i), ObjectId(0));
                }
                lm.release_all(TxnId(0));
                lm
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("deadlock_detection_chain", |b| {
        // A waits-for chain of 32 transactions; the 33rd closes it.
        b.iter_batched(
            || {
                let mut lm = LockManager::new();
                for i in 0..32u64 {
                    lm.acquire(TxnId(i), ObjectId(i));
                }
                for i in 0..31u64 {
                    lm.acquire(TxnId(i), ObjectId(i + 1));
                }
                lm
            },
            |mut lm| {
                black_box(lm.acquire(TxnId(31), ObjectId(0)));
                lm
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("object_store");
    g.bench_function("apply_versioned_safe", |b| {
        let mut store = ObjectStore::new(1_000);
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            let old = store.get(ObjectId(counter % 1000)).ts;
            store.apply_versioned(
                ObjectId(counter % 1000),
                old,
                Timestamp::new(counter, NodeId(1)),
                Value::Int(counter as i64),
            )
        });
    });
    g.bench_function("apply_lww", |b| {
        let mut store = ObjectStore::new(1_000);
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            store.apply_lww(
                ObjectId(counter % 1000),
                Timestamp::new(counter, NodeId(1)),
                Value::Int(counter as i64),
            )
        });
    });
    g.bench_function("digest_10k_objects", |b| {
        // The rolling digest: O(1) per call now that writes maintain it.
        let store = ObjectStore::new(10_000);
        b.iter(|| black_box(store.digest()));
    });
    g.bench_function("recompute_digest_10k", |b| {
        // The full scan the rolling digest replaced — kept as the
        // baseline so the gap stays visible.
        let store = ObjectStore::new(10_000);
        b.iter(|| black_box(store.recompute_digest()));
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_1k", |b| {
        let mut rng = SimRng::new(1);
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..1_000u64 {
                    q.schedule_at(SimTime(rng.next_u64() % 1_000_000), i);
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("samplers");
    let mut rng = SimRng::new(2);
    let uniform = Sampler::new(AccessPattern::Uniform, 100_000);
    g.bench_function("uniform_distinct_4", |b| {
        b.iter(|| black_box(uniform.sample_distinct(&mut rng, 4)));
    });
    let zipf = Sampler::new(AccessPattern::Zipf { theta: 0.8 }, 100_000);
    g.bench_function("zipf_distinct_4", |b| {
        b.iter(|| black_box(zipf.sample_distinct(&mut rng, 4)));
    });
    // The raw draw-k-distinct-of-n path across both regimes: rejection
    // sampling at small k, the partial Fisher–Yates scratch path once
    // k crosses the threshold (sharded nodes draw k = Actions from
    // their hosted-object count, so large k is a real workload now).
    let mut scratch = Vec::new();
    for k in [4usize, 16, 64, 256] {
        g.bench_function(&format!("sample_distinct_{k}"), |b| {
            b.iter(|| {
                rng.sample_distinct_into(100_000, k, &mut scratch);
                black_box(scratch.len())
            });
        });
    }
    g.bench_function("rng_exp", |b| {
        b.iter(|| black_box(rng.exp(0.1)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lock_manager,
    bench_store,
    bench_event_queue,
    bench_samplers
);
criterion_main!(benches);
