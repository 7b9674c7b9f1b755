//! Offline shim for the subset of `rayon` used by this workspace.
//!
//! Provides `par_iter()` over slices and `Vec`s with the
//! `fold(identity, fold_op).reduce(identity, reduce_op)` shape used by the
//! witness-counting and mutual-best kernels. Work is split into one
//! contiguous chunk per available core and executed on `std::thread::scope`
//! threads — genuinely parallel, just without rayon's work stealing.
//! `ThreadPoolBuilder::new().num_threads(n).build()?.install(op)` runs `op`
//! with `n` as the worker count, so tests can force a multi-chunk split on
//! any host.
//!
//! As with real rayon, the grouping of items into fold accumulators is an
//! implementation detail: callers must use commutative/associative
//! reductions (all users here merge hash maps, which qualifies).

#![forbid(unsafe_code)]

/// Iterator-style entry point: `collection.par_iter()`.
pub trait IntoParallelRefIterator<'data> {
    /// Borrowed item type.
    type Item: 'data;
    /// The parallel iterator produced.
    type Iter;

    /// Returns a parallel iterator over borrowed items.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

/// A parallel iterator over a borrowed slice.
pub struct ParSlice<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParSlice<'data, T> {
    /// Parallel fold: each worker folds its chunk of items into an
    /// accumulator seeded by `identity()`. Returns the per-chunk
    /// accumulators, to be combined with [`ParFold::reduce`].
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParFold<'data, T, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, &'data T) -> A + Sync,
    {
        ParFold { slice: self.slice, identity, fold_op }
    }

    /// Parallel map collecting into a `Vec` in input order.
    pub fn map<B, F>(self, op: F) -> ParMap<'data, T, F>
    where
        B: Send,
        F: Fn(&'data T) -> B + Sync,
    {
        ParMap { slice: self.slice, op }
    }
}

/// Pending parallel fold; finished by [`ParFold::reduce`].
pub struct ParFold<'data, T, ID, F> {
    slice: &'data [T],
    identity: ID,
    fold_op: F,
}

impl<'data, T, A, ID, F> ParFold<'data, T, ID, F>
where
    T: Sync,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, &'data T) -> A + Sync,
{
    /// Combines the per-chunk accumulators with `reduce_op`, starting from
    /// `reduce_identity()`.
    pub fn reduce<RID, R>(self, reduce_identity: RID, reduce_op: R) -> A
    where
        RID: Fn() -> A,
        R: Fn(A, A) -> A,
    {
        let accumulators = run_chunked(self.slice, &|chunk| {
            let mut acc = (self.identity)();
            for item in chunk {
                acc = (self.fold_op)(acc, item);
            }
            acc
        });
        let mut result = reduce_identity();
        for acc in accumulators {
            result = reduce_op(result, acc);
        }
        result
    }
}

/// Pending parallel map; finished by [`ParMap::collect`].
pub struct ParMap<'data, T, F> {
    slice: &'data [T],
    op: F,
}

impl<'data, T, B, F> ParMap<'data, T, F>
where
    T: Sync,
    B: Send,
    F: Fn(&'data T) -> B + Sync,
{
    /// Collects mapped values, preserving input order.
    pub fn collect(self) -> Vec<B> {
        let chunks =
            run_chunked(self.slice, &|chunk| chunk.iter().map(&self.op).collect::<Vec<B>>());
        let mut out = Vec::with_capacity(self.slice.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

/// A parallel iterator over a borrowed `HashMap`, mirroring rayon's
/// `&HashMap: IntoParallelIterator` support.
///
/// `std`'s `HashMap` exposes no random access or shard handles, so the
/// items are streamed: workers repeatedly pull fixed-size batches from the
/// map's iterator behind a mutex and fold them locally. No up-front
/// materialization of the whole table, one accumulator per worker (not per
/// batch), and the usual shim contract — reductions must be
/// commutative/associative — gives deterministic results.
pub struct ParHashMap<'data, K, V> {
    map: &'data std::collections::HashMap<K, V>,
}

impl<'data, K: Sync + 'data, V: Sync + 'data> IntoParallelRefIterator<'data>
    for std::collections::HashMap<K, V>
{
    type Item = (&'data K, &'data V);
    type Iter = ParHashMap<'data, K, V>;

    fn par_iter(&'data self) -> ParHashMap<'data, K, V> {
        ParHashMap { map: self }
    }
}

impl<'data, K: Sync, V: Sync> ParHashMap<'data, K, V> {
    /// Parallel fold over `(&key, &value)` items; finished by
    /// [`ParHashMapFold::reduce`].
    pub fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> ParHashMapFold<'data, K, V, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, (&'data K, &'data V)) -> A + Sync,
    {
        ParHashMapFold { map: self.map, identity, fold_op }
    }
}

/// Pending parallel fold over a `HashMap`; finished by
/// [`ParHashMapFold::reduce`].
pub struct ParHashMapFold<'data, K, V, ID, F> {
    map: &'data std::collections::HashMap<K, V>,
    identity: ID,
    fold_op: F,
}

/// Items pulled from the shared map iterator per lock acquisition.
const MAP_BATCH: usize = 1_024;

impl<'data, K, V, A, ID, F> ParHashMapFold<'data, K, V, ID, F>
where
    K: Sync,
    V: Sync,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, (&'data K, &'data V)) -> A + Sync,
{
    /// Combines the per-worker accumulators with `reduce_op`, starting from
    /// `reduce_identity()`.
    pub fn reduce<RID, R>(self, reduce_identity: RID, reduce_op: R) -> A
    where
        RID: Fn() -> A,
        R: Fn(A, A) -> A,
    {
        let len = self.map.len();
        let workers = current_num_threads().clamp(1, len.div_ceil(MAP_BATCH).max(1));
        if len == 0 || workers == 1 {
            let mut acc = (self.identity)();
            for kv in self.map.iter() {
                acc = (self.fold_op)(acc, kv);
            }
            return reduce_op(reduce_identity(), acc);
        }
        let source = std::sync::Mutex::new(self.map.iter());
        let accumulators: Vec<A> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut acc = (self.identity)();
                        let mut batch = Vec::with_capacity(MAP_BATCH);
                        loop {
                            {
                                let mut iter = source.lock().expect("map iterator mutex poisoned");
                                batch.extend(iter.by_ref().take(MAP_BATCH));
                            }
                            if batch.is_empty() {
                                break;
                            }
                            for kv in batch.drain(..) {
                                acc = (self.fold_op)(acc, kv);
                            }
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
        });
        let mut result = reduce_identity();
        for acc in accumulators {
            result = reduce_op(result, acc);
        }
        result
    }
}

/// Splits `slice` into contiguous chunks (several per available core, so
/// reductions always see multiple partial accumulators and cores stay busy
/// when chunks finish unevenly) and runs `f` on each chunk in a scoped
/// thread. Results come back in chunk order.
fn run_chunked<'data, T, A, F>(slice: &'data [T], f: &F) -> Vec<A>
where
    T: Sync,
    A: Send,
    F: Fn(&'data [T]) -> A + Sync,
{
    if slice.is_empty() {
        return Vec::new();
    }
    if slice.len() == 1 {
        return vec![f(slice)];
    }
    let pieces = (current_num_threads() * 4).clamp(2, slice.len());
    let chunk_size = slice.len().div_ceil(pieces);
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            slice.chunks(chunk_size).map(|chunk| scope.spawn(move || f(chunk))).collect();
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
}

thread_local! {
    /// Worker count set by [`ThreadPool::install`] on the calling thread.
    static INSTALLED_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Number of worker threads used for parallel operations: the installed
/// pool's size inside [`ThreadPool::install`], else one per available core.
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS
        .with(|n| n.get())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Builder for a [`ThreadPool`] of a fixed size, mirroring rayon's.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error of [`ThreadPoolBuilder::build`]; the shim never fails to build.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    /// A builder for a pool with one worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; 0 means one per available core.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A fixed-size pool: parallel operations started inside
/// [`ThreadPool::install`] split their work as if the host had that many
/// cores. The shim spawns scoped threads per operation, so the pool only
/// carries its size.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker count in effect.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_THREADS.with(|n| n.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED_THREADS.with(|n| n.replace(Some(self.threads))));
        op()
    }

    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Glob-importable traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn fold_reduce_counts_like_sequential() {
        let items: Vec<u32> = (0..10_000).collect();
        let par: HashMap<u32, u32> = items
            .par_iter()
            .fold(HashMap::new, |mut acc, &x| {
                *acc.entry(x % 13).or_insert(0) += 1;
                acc
            })
            .reduce(HashMap::new, |mut a, b| {
                for (k, v) in b {
                    *a.entry(k).or_insert(0) += v;
                }
                a
            });
        let mut seq: HashMap<u32, u32> = HashMap::new();
        for x in &items {
            *seq.entry(x % 13).or_insert(0) += 1;
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<u64> = (0..5_000).collect();
        let doubled = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_identity() {
        let items: Vec<u32> = Vec::new();
        let sum = items.par_iter().fold(|| 0u32, |a, &b| a + b).reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, 0);
    }

    #[test]
    fn hashmap_fold_reduce_matches_sequential() {
        let map: HashMap<u32, u64> = (0..20_000u32).map(|k| (k, (k as u64) * 3)).collect();
        let par = map
            .par_iter()
            .fold(|| 0u64, |acc, (&k, &v)| acc + k as u64 + v)
            .reduce(|| 0, |a, b| a + b);
        let seq: u64 = map.iter().map(|(&k, &v)| k as u64 + v).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn install_sets_the_worker_count_and_restores_it() {
        let outside = super::current_num_threads();
        let pool = super::ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        assert_eq!(pool.install(super::current_num_threads), 7);
        assert_eq!(super::current_num_threads(), outside);
        let items: Vec<u64> = (0..1_000).collect();
        let sum = pool
            .install(|| items.par_iter().fold(|| 0u64, |a, &b| a + b).reduce(|| 0, |a, b| a + b));
        assert_eq!(sum, items.iter().sum::<u64>());
    }

    #[test]
    fn empty_hashmap_yields_identity() {
        let map: HashMap<u32, u32> = HashMap::new();
        let sum = map.par_iter().fold(|| 0u32, |a, (_, &v)| a + v).reduce(|| 7, |a, b| a + b);
        assert_eq!(sum, 7);
    }
}
