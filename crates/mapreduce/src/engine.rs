//! The MapReduce execution engine: one round shape.

use crate::spill::{self, EngineError, MergeSource, RunReader, SpillCodec};
use crate::stats::{EngineStats, RoundStats};
use parking_lot::Mutex;
use snr_faults::{FaultRegistry, FaultSite};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Smallest number of input records per map task when the chunk size is
/// not set explicitly.
const DEFAULT_CHUNK: usize = 8_192;

/// Upper bound on map tasks per worker when the chunk size is not set
/// explicitly.
///
/// Mappers typically pay a per-task setup cost (the witness rounds
/// allocate a task-local `ScoreArena`), so chunks are sized to keep the
/// task count at a small multiple of the worker count instead of letting a
/// tiny chunk size explode into thousands of setup-heavy tasks.
const TASKS_PER_WORKER: usize = 4;

/// Process-wide engine counter: it names each engine's default scratch
/// directory, so two engines in one process never share spill runs.
static NEXT_ENGINE: AtomicU64 = AtomicU64::new(0);

/// An in-memory MapReduce engine with an optional out-of-core shuffle.
///
/// One engine instance corresponds to one "cluster": it owns a worker count
/// (also the number of reduce partitions per round), an optional spill
/// budget, and cumulative [`EngineStats`] across every round it runs. A
/// round is one call to [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    /// Input records per map task; `None` sizes chunks from the input
    /// length (see [`TASKS_PER_WORKER`]).
    chunk_size: Option<usize>,
    /// Memory budget for a round's resident shuffle bytes; `None` means
    /// unlimited (never spill).
    spill_budget: Option<u64>,
    /// Base directory for spill runs; each round uses a `round-<N>`
    /// subdirectory beneath it.
    scratch_dir: PathBuf,
    /// 1-based round sequence, claimed at round start — the `R` that
    /// `spill_io@roundR` / `spill_corrupt@roundR` fault selectors match.
    round_seq: AtomicU64,
    /// Fault registry consulted by the spill writer/reader (from
    /// `SNR_FAULT` by default). Behind a mutex because registries latch
    /// fire-once state through a `Cell`.
    faults: Mutex<FaultRegistry>,
    stats: Mutex<EngineStats>,
}

impl Engine {
    /// Creates an engine with `workers` map/reduce threads and as many
    /// reduce partitions per round. It never spills until
    /// [`Engine::with_spill_budget`] gives it a budget; its fault registry
    /// comes from [`FaultRegistry::from_env`].
    pub fn new(workers: usize) -> Self {
        let engine_id = NEXT_ENGINE.fetch_add(1, Ordering::Relaxed);
        Engine {
            workers: workers.max(1),
            chunk_size: None,
            spill_budget: None,
            scratch_dir: std::env::temp_dir()
                .join(format!("snr-mr-spill-{}-{engine_id}", std::process::id())),
            round_seq: AtomicU64::new(0),
            faults: Mutex::new(FaultRegistry::from_env()),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    /// Sets the number of input records per map task exactly; without this
    /// call the engine sizes chunks itself to amortize per-task setup.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = Some(chunk.max(1));
        self
    }

    /// Sets the spill memory budget in bytes: when a round's resident
    /// shuffle bytes would cross it, map tasks flush their buckets to disk
    /// runs. `Some(0)` spills every non-empty task; `None` (the default)
    /// never spills. Output is bit-identical at every budget; only
    /// residency changes.
    pub fn with_spill_budget(mut self, budget: Option<u64>) -> Self {
        self.spill_budget = budget;
        self
    }

    /// Overrides the scratch directory spill runs are written under (a
    /// `round-<N>` subdirectory per round, removed when the round ends —
    /// successfully or not). The default is a directory of this engine's
    /// own under the system temp dir. Engines that run rounds at the same
    /// time must not share an explicit scratch directory: their round
    /// numbers and run-file names collide.
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.scratch_dir = dir.into();
        self
    }

    /// Replaces the fault registry consulted by the spill machinery (tests
    /// inject `spill_io` / `spill_corrupt` without touching the
    /// environment).
    pub fn with_fault_registry(mut self, faults: FaultRegistry) -> Self {
        self.faults = Mutex::new(faults);
        self
    }

    /// Number of worker threads used for map and reduce tasks, and the
    /// number of reduce partitions per round.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats.lock().clone()
    }

    /// Runs one MapReduce round: chunked mappers, a caller-chosen
    /// partitioner, an optionally spilling shuffle, and a per-partition
    /// reduce fold.
    ///
    /// * `map` sees a whole *chunk* of input records at a time, so it can
    ///   amortize per-task setup (decode caches, scratch arenas) and emit
    ///   already-aggregated pairs instead of one record per contribution.
    /// * `part_of` routes a key to a reduce partition (`0..workers`);
    ///   [`crate::partition::range_partition`] keeps each partition a
    ///   contiguous, sorted key interval.
    /// * `reduce` is called once per partition with *all* of that
    ///   partition's key groups in ascending key order, a key's values in
    ///   map-task order, and folds them into a single output value, so
    ///   per-partition state (a selection sink, an accumulator) lives
    ///   across keys without a global materialization.
    /// * `codec` owns the record format: [`SpillCodec::bytes_of`] is the
    ///   shuffle-byte charge of one record, reported in
    ///   [`RoundStats::shuffled_bytes`] and reserved against the spill
    ///   budget, and the encode/decode pair serializes key groups when the
    ///   round spills.
    ///
    /// When the round's shuffle bytes would cross the spill budget
    /// ([`Engine::with_spill_budget`]), map tasks flush their sorted
    /// per-partition buckets to checksummed run files and the reduce side
    /// k-way-merges the on-disk runs with the in-memory tail. Output is
    /// **bit-identical** at every budget.
    ///
    /// Returns one output per partition, in partition order.
    ///
    /// # Errors
    ///
    /// Spill I/O failures and run-file corruption (including the injected
    /// `spill_io` / `spill_corrupt` fault sites) surface as a clean
    /// [`EngineError::Spill`] with the round's scratch directory removed
    /// and the round excluded from [`Engine::stats`]. An engine without a
    /// spill budget never touches disk and never fails.
    pub fn run<I, K, V, O, M, P, R, C>(
        &self,
        label: &str,
        input: Vec<I>,
        map: M,
        part_of: P,
        reduce: R,
        codec: &C,
    ) -> Result<Vec<O>, EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        M: Fn(&[I]) -> Vec<(K, V)> + Sync,
        P: Fn(&K) -> usize + Sync,
        R: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        C: SpillCodec<K, V> + Sync,
    {
        let start = Instant::now();
        let _span = snr_telemetry::span!("round", label = label);
        let (output, counters) = self.run_round(input, &map, &part_of, &reduce, codec)?;
        self.record_round(label, counters, output.len(), start);
        Ok(output)
    }

    /// The body of [`Engine::run`]: chunked map → per-bucket group → budget
    /// check (+ spill to disk runs) → shuffle → per-partition sorted group
    /// / k-way run merge → partition fold. Returns one fold output per
    /// partition plus the round's counters.
    #[allow(clippy::type_complexity)]
    fn run_round<I, K, V, O, M, P, R, C>(
        &self,
        input: Vec<I>,
        map: &M,
        part_of: &P,
        reduce: &R,
        codec: &C,
    ) -> Result<(Vec<O>, RoundCounters), EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        M: Fn(&[I]) -> Vec<(K, V)> + Sync,
        P: Fn(&K) -> usize + Sync,
        R: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        C: SpillCodec<K, V> + Sync,
    {
        // Claim this round's 1-based sequence number up front: it names the
        // scratch subdirectory and is the `R` that `spill_io@roundR` /
        // `spill_corrupt@roundR` fault selectors match.
        let round_no = self.round_seq.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        // Declared before the round's other locals so it drops after them:
        // its `Drop` removes the round's scratch directory on every exit
        // path.
        let spill_state = self.spill_budget.map(|budget| SpillState {
            budget,
            round: round_no,
            round_dir: self.scratch_dir.join(format!("round-{round_no}")),
            in_mem: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            spilled_runs: AtomicU64::new(0),
            merge_micros: AtomicU64::new(0),
        });
        let spill = spill_state.as_ref();
        let input_records = input.len();
        let parts = self.workers;
        let chunk_size = self.chunk_size.unwrap_or_else(|| {
            DEFAULT_CHUNK.max(input_records.div_ceil(self.workers * TASKS_PER_WORKER))
        });

        // ---- Map phase -----------------------------------------------------
        // Split the input into chunks and map them on the worker pool. Each
        // task emits `parts` buckets of key groups, already sorted by key,
        // so the shuffle only moves grouped records and the reduce-side sort
        // sees nearly-sorted runs.
        let chunks: Vec<(usize, Vec<I>)> =
            split_into_chunks(input, chunk_size).into_iter().enumerate().collect();
        let map_tasks = chunks.len();
        // Each map task tallies its own shuffle volume (records and bytes)
        // while the data is still hot in its worker, so the single-threaded
        // transpose below only sums per-task scalars.
        // When a spill budget is active the task then tries to *reserve*
        // its bytes against the shared budget; if the reservation would
        // cross it, the task flushes its buckets to disk runs instead and
        // keeps only empty placeholders in memory. Which tasks spill can
        // vary run to run under parallelism (reservation order races), but
        // the merged output is bit-identical regardless.
        type MapOut<K, V> = (TaskTally, Vec<Vec<(K, Vec<V>)>>, Vec<Option<PathBuf>>);
        let map_task = |(task, chunk): (usize, Vec<I>)| -> Result<MapOut<K, V>, EngineError> {
            let pairs = map(&chunk);
            let mut tally = TaskTally { records: pairs.len(), bytes: 0 };
            let mut flat: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
            for (k, v) in pairs {
                let p = part_of(&k);
                assert!(p < parts, "partitioner returned {p} for {parts} partitions");
                flat[p].push((k, v));
            }
            let mut buckets = Vec::with_capacity(parts);
            for bucket in flat {
                let groups = group_sorted(bucket);
                for (k, vs) in &groups {
                    tally.bytes += vs.iter().map(|v| codec.bytes_of(k, v)).sum::<usize>();
                }
                buckets.push(groups);
            }
            let mut run_paths: Vec<Option<PathBuf>> = vec![None; parts];
            if let Some(sp) = spill {
                let bytes = tally.bytes as u64;
                let resident = sp.in_mem.fetch_add(bytes, Ordering::Relaxed);
                if resident + bytes > sp.budget {
                    // Over budget: undo the reservation and spill this
                    // task's non-empty buckets to one run file each.
                    sp.in_mem.fetch_sub(bytes, Ordering::Relaxed);
                    std::fs::create_dir_all(&sp.round_dir).map_err(|e| {
                        EngineError::Spill(format!(
                            "creating scratch dir {}: {e}",
                            sp.round_dir.display()
                        ))
                    })?;
                    for (p, bucket) in buckets.iter_mut().enumerate() {
                        if bucket.is_empty() {
                            continue;
                        }
                        let path = sp.round_dir.join(format!("run-t{task}-p{p}.snrr"));
                        let file_bytes = spill::write_run(
                            &path,
                            sp.round,
                            task as u32,
                            p as u32,
                            bucket,
                            codec,
                            &self.faults,
                        )?;
                        snr_telemetry::event!(
                            "spill",
                            round = sp.round,
                            task = task,
                            partition = p,
                            groups = bucket.len(),
                            bytes = file_bytes,
                        );
                        sp.spilled_runs.fetch_add(1, Ordering::Relaxed);
                        *bucket = Vec::new();
                        run_paths[p] = Some(path);
                    }
                    sp.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
            Ok((tally, buckets, run_paths))
        };
        let mapped: Vec<Result<MapOut<K, V>, EngineError>> = if self.workers == 1 || map_tasks <= 1
        {
            chunks.into_iter().map(map_task).collect()
        } else {
            parallel_map(self.workers, chunks, map_task)
        };

        // ---- Shuffle -------------------------------------------------------
        // Transpose the per-task buckets into per-partition columns (cheap:
        // only `Vec` headers move, plus a scalar sum per task). Record
        // movement happens inside the per-partition reduce workers.
        let mut shuffled_records = 0usize;
        let mut shuffled_bytes = 0usize;
        let mut columns: Vec<Vec<Vec<(K, Vec<V>)>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        let mut run_columns: Vec<Vec<Option<PathBuf>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        for task_result in mapped {
            let (tally, mut worker_buckets, mut worker_runs) = task_result?;
            shuffled_records += tally.records;
            shuffled_bytes += tally.bytes;
            for p in (0..parts).rev() {
                let bucket = worker_buckets.pop().expect("bucket count mismatch");
                columns[p].push(bucket);
                let run = worker_runs.pop().expect("run column count mismatch");
                run_columns[p].push(run);
            }
        }

        // The spill_corrupt fault site sits between map and reduce: flip
        // one byte of the first run file so the reduce-side checksum pass
        // must catch it (clean error, never wrong output).
        if let Some(sp) = spill {
            if sp.spilled_runs.load(Ordering::Relaxed) > 0 {
                let (hit, seed) = {
                    let reg = self.faults.lock();
                    (reg.fire(FaultSite::SpillCorrupt, None, Some(sp.round)).is_some(), reg.seed())
                };
                if hit {
                    spill::corrupt_first_run(&sp.round_dir, seed);
                }
            }
        }

        // ---- Reduce --------------------------------------------------------
        type ReduceIn<K, V> = (usize, Vec<Vec<(K, Vec<V>)>>, Vec<Option<PathBuf>>);
        let tasks: Vec<ReduceIn<K, V>> = columns
            .into_iter()
            .zip(run_columns)
            .enumerate()
            .map(|(p, (col, runs))| (p, col, runs))
            .collect();
        let reduce_task = |(p, col, runs): ReduceIn<K, V>| -> Result<(usize, O), EngineError> {
            let groups = if runs.iter().any(Option::is_some) {
                // Some of this partition's buckets live on disk: k-way-merge
                // the runs with the in-memory tail, in map-task order.
                let sp = spill.expect("run files only exist when spilling");
                let merge_start = Instant::now();
                let _span = snr_telemetry::span!("spill_merge", partition = p);
                let mut sources: Vec<MergeSource<'_, K, V, C>> = Vec::with_capacity(col.len());
                for (bucket, run) in col.into_iter().zip(runs) {
                    match run {
                        Some(path) => {
                            sources.push(MergeSource::Disk(RunReader::open(&path, codec)?))
                        }
                        None => sources.push(MergeSource::Mem(bucket.into_iter())),
                    }
                }
                let merged = spill::merge_spill_sources(sources)?;
                sp.merge_micros
                    .fetch_add(merge_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                merged
            } else {
                merge_sorted_buckets(col)
            };
            Ok((groups.len(), reduce(p, groups)))
        };
        let reduced: Vec<Result<(usize, O), EngineError>> = if self.workers == 1 || parts <= 1 {
            tasks.into_iter().map(reduce_task).collect()
        } else {
            parallel_map(self.workers, tasks, reduce_task)
        };
        let mut key_groups = 0usize;
        let mut output: Vec<O> = Vec::with_capacity(parts);
        for r in reduced {
            let (groups, o) = r?;
            key_groups += groups;
            output.push(o);
        }

        let (spilled_bytes, spilled_runs, spill_merge_micros) = match spill {
            Some(sp) => (
                sp.spilled_bytes.load(Ordering::Relaxed) as usize,
                sp.spilled_runs.load(Ordering::Relaxed) as usize,
                sp.merge_micros.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        };
        let counters = RoundCounters {
            input_records,
            shuffled_records,
            shuffled_bytes,
            key_groups,
            map_tasks,
            reduce_tasks: parts,
            spilled_bytes,
            spilled_runs,
            spill_merge_micros,
        };
        Ok((output, counters))
    }

    fn record_round(&self, label: &str, c: RoundCounters, output_records: usize, start: Instant) {
        let duration = start.elapsed();
        snr_telemetry::Counter::EngineRounds.add(1);
        snr_telemetry::Counter::ShuffleRecords.add(c.shuffled_records as u64);
        snr_telemetry::Counter::ShuffleBytes.add(c.shuffled_bytes as u64);
        snr_telemetry::Counter::SpilledBytes.add(c.spilled_bytes as u64);
        snr_telemetry::Counter::SpilledRuns.add(c.spilled_runs as u64);
        snr_telemetry::Histogram::RoundMicros.record(duration.as_micros() as u64);
        snr_telemetry::event!(
            "engine_round",
            label = label,
            shuffled_records = c.shuffled_records,
            shuffled_bytes = c.shuffled_bytes,
            reduce_tasks = c.reduce_tasks,
            spilled_runs = c.spilled_runs,
        );
        self.stats.lock().record(RoundStats {
            label: label.to_string(),
            input_records: c.input_records,
            // No combiner: every emitted pair is shuffled.
            map_output_records: c.shuffled_records,
            shuffled_records: c.shuffled_records,
            shuffled_bytes: c.shuffled_bytes,
            key_groups: c.key_groups,
            output_records,
            map_tasks: c.map_tasks,
            reduce_tasks: c.reduce_tasks,
            spilled_bytes: c.spilled_bytes,
            spilled_runs: c.spilled_runs,
            spill_merge_micros: c.spill_merge_micros,
            duration,
        });
    }
}

/// Per-round spill bookkeeping shared by the map and reduce workers.
/// Dropping it removes the round's scratch directory.
struct SpillState {
    /// Resident shuffle bytes allowed before tasks start spilling.
    budget: u64,
    /// 1-based engine round number (fault selectors, run-file headers).
    round: u32,
    /// This round's scratch subdirectory (created lazily on first spill).
    round_dir: PathBuf,
    /// Shuffle bytes currently reserved as in-memory.
    in_mem: AtomicU64,
    /// Shuffle bytes flushed to disk runs.
    spilled_bytes: AtomicU64,
    /// Run files written.
    spilled_runs: AtomicU64,
    /// Microseconds reduce tasks spent k-way-merging runs.
    merge_micros: AtomicU64,
}

impl Drop for SpillState {
    /// The run files were fully consumed (or the round failed): remove the
    /// round's scratch subdirectory, and the base scratch dir too once no
    /// other round is using it (`remove_dir` only removes an empty one).
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.round_dir);
        if let Some(base) = self.round_dir.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Per-map-task shuffle tally, computed inside the task's worker.
struct TaskTally {
    records: usize,
    bytes: usize,
}

/// Per-round counters accumulated by [`Engine::run_round`]; [`Engine::run`]
/// fills in the label, output count, and duration.
struct RoundCounters {
    input_records: usize,
    shuffled_records: usize,
    shuffled_bytes: usize,
    key_groups: usize,
    map_tasks: usize,
    reduce_tasks: usize,
    spilled_bytes: usize,
    spilled_runs: usize,
    spill_merge_micros: u64,
}

/// Groups one bucket of `(key, value)` pairs into `(key, values)` runs in
/// ascending key order. The sort is stable, so values keep their emission
/// order within each key.
fn group_sorted<K: Ord, V>(mut bucket: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    bucket.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in bucket {
        match groups.last_mut() {
            Some((lk, lvs)) if *lk == k => lvs.push(v),
            _ => groups.push((k, vec![v])),
        }
    }
    groups
}

/// Merges one partition's grouped buckets — one sorted bucket per map task —
/// into a single ascending key-group list. Buckets arrive in task order and
/// the merge sort is stable, so a key's values concatenate in task order.
fn merge_sorted_buckets<K: Ord, V>(buckets: Vec<Vec<(K, Vec<V>)>>) -> Vec<(K, Vec<V>)> {
    let total: usize = buckets.iter().map(Vec::len).sum();
    let mut entries: Vec<(K, Vec<V>)> = Vec::with_capacity(total);
    for bucket in buckets {
        entries.extend(bucket);
    }
    // Nearly-sorted input (each bucket is sorted): the stable merge sort
    // detects the runs, so this is close to a single merge pass.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups: Vec<(K, Vec<V>)> = Vec::with_capacity(entries.len());
    for (k, mut vs) in entries {
        match groups.last_mut() {
            Some((lk, lvs)) if *lk == k => lvs.append(&mut vs),
            _ => groups.push((k, vs)),
        }
    }
    groups
}

/// Splits `input` into chunks of at most `chunk_size` records.
fn split_into_chunks<I>(input: Vec<I>, chunk_size: usize) -> Vec<Vec<I>> {
    if input.is_empty() {
        return Vec::new();
    }
    let mut chunks = Vec::with_capacity(input.len() / chunk_size + 1);
    let mut current = Vec::with_capacity(chunk_size.min(input.len()));
    for record in input {
        current.push(record);
        if current.len() == chunk_size {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Applies `f` to every task on a pool of `workers` crossbeam scoped threads,
/// preserving task order in the result.
fn parallel_map<T, U, F>(workers: usize, tasks: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let task_count = tasks.len();
    let mut slots: Vec<Option<U>> = Vec::with_capacity(task_count);
    slots.resize_with(task_count, || None);
    let slots = Mutex::new(slots);
    let queue = Mutex::new(tasks.into_iter().enumerate().collect::<Vec<_>>());

    crossbeam::scope(|scope| {
        for _ in 0..workers.min(task_count).max(1) {
            scope.spawn(|_| loop {
                let next = queue.lock().pop();
                match next {
                    Some((idx, task)) => {
                        let result = f(task);
                        slots.lock()[idx] = Some(result);
                    }
                    None => break,
                }
            });
        }
    })
    .expect("mapreduce worker thread panicked");

    slots.into_inner().into_iter().map(|slot| slot.expect("task slot not filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::range_partition;
    use crate::spill::tests::U32U64Codec as TestCodec;

    /// Key groups as the reduce saw them, one list per partition.
    type Groups = Vec<(u32, Vec<u64>)>;

    /// A round that keys each value by `key_of`, range-partitions keys in
    /// `0..bound`, and returns every partition's groups unchanged.
    fn groups_round(
        engine: &Engine,
        input: Vec<u64>,
        key_of: fn(u64) -> u32,
        bound: usize,
    ) -> Result<Vec<Groups>, EngineError> {
        let parts = engine.workers();
        engine.run(
            "groups",
            input,
            |chunk: &[u64]| chunk.iter().map(|&x| (key_of(x), x)).collect(),
            |&k: &u32| range_partition(k, bound, parts),
            |_, groups: Groups| groups,
            &TestCodec,
        )
    }

    /// Per-key sums of a `(key, value)` input, flattened across partitions.
    fn sums(engine: &Engine, input: Vec<(u32, u64)>, bound: usize) -> Vec<(u32, u64)> {
        let parts = engine.workers();
        let per_part: Vec<Vec<(u32, u64)>> = engine
            .run(
                "sums",
                input,
                |chunk: &[(u32, u64)]| chunk.to_vec(),
                |&k: &u32| range_partition(k, bound, parts),
                |_, groups: Groups| {
                    groups.into_iter().map(|(k, vs)| (k, vs.iter().sum())).collect::<Vec<_>>()
                },
                &TestCodec,
            )
            .expect("an engine without a spill budget cannot fail");
        per_part.into_iter().flatten().collect()
    }

    #[test]
    fn parallel_round_matches_sequential() {
        let input: Vec<(u32, u64)> = (0..500u64).map(|x| ((x * 7 % 31) as u32, x)).collect();
        let expected = sums(&Engine::new(1), input.clone(), 31);
        assert_eq!(expected.len(), 31);
        for (workers, chunk) in [(2usize, 1usize), (4, 7), (5, 1_000)] {
            let engine = Engine::new(workers).with_chunk_size(chunk);
            assert_eq!(sums(&engine, input.clone(), 31), expected, "workers={workers}");
        }
    }

    #[test]
    fn round_accounting_is_pinned_on_a_known_workload() {
        // 12 records, keys `i % 3`, chunks of 4 → 3 map tasks of exactly 4
        // records each; 2 workers → 2 reduce partitions, keys split by parity.
        let engine = Engine::new(2).with_chunk_size(4);
        let run = || -> Vec<(u32, u64)> {
            engine
                .run(
                    "pinned",
                    (0..12u64).collect(),
                    |chunk: &[u64]| chunk.iter().map(|&x| ((x % 3) as u32, 1u64)).collect(),
                    |&k: &u32| k as usize % 2,
                    |_, groups: Groups| {
                        groups.into_iter().map(|(k, vs)| (k, vs.iter().sum())).collect::<Vec<_>>()
                    },
                    &TestCodec,
                )
                .unwrap()
                .into_iter()
                .flatten()
                .collect()
        };
        assert_eq!(run(), vec![(0, 4), (2, 4), (1, 4)], "partition order, then key order");
        let stats = engine.stats();
        let round = &stats.per_round[0];
        assert_eq!(round.label, "pinned");
        assert_eq!(round.input_records, 12);
        assert_eq!(round.map_output_records, 12, "mappers emitted one pair per record");
        assert_eq!(round.shuffled_records, 12, "every emitted pair is shuffled");
        assert_eq!(round.shuffled_bytes, 12 * 12, "the codec charges 12 bytes a record");
        assert_eq!(round.key_groups, 3);
        assert_eq!(round.output_records, 2, "one fold output per partition");
        assert_eq!(round.map_tasks, 3);
        assert_eq!(round.reduce_tasks, 2);
        assert_eq!(round.spilled_runs, 0);
        let summary = stats.stats_summary();
        assert!(summary.contains("1 round"), "{summary}");
        assert!(summary.contains("12 shuffled"), "{summary}");

        // A second round accumulates into the engine's totals.
        run();
        let stats = engine.stats();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.total_input_records, 24);
        assert_eq!(stats.total_shuffled_records, 24);
        assert_eq!(stats.total_shuffled_bytes, 288);
        assert_eq!(stats.total_output_records, 4);
    }

    #[test]
    fn default_chunking_caps_tasks_per_worker_with_a_floor() {
        // Without an explicit chunk size a task holds at least
        // DEFAULT_CHUNK records, and a round has at most
        // TASKS_PER_WORKER tasks per worker.
        let map_tasks = |workers: usize, records: u64| {
            let engine = Engine::new(workers);
            groups_round(&engine, (0..records).collect(), |x| (x % 4) as u32, 4).unwrap();
            engine.stats().per_round[0].map_tasks
        };
        assert_eq!(map_tasks(2, 1_000), 1, "one chunk below the floor");
        assert_eq!(map_tasks(2, 20_000), 3, "chunks of DEFAULT_CHUNK");
        assert_eq!(map_tasks(2, 100_000), 8, "2 workers x 4 tasks");
        assert_eq!(map_tasks(3, 100_000), 12, "3 workers x 4 tasks");
    }

    #[test]
    fn range_partitioned_output_is_globally_key_sorted() {
        let engine = Engine::new(4).with_chunk_size(5);
        let per_part = groups_round(&engine, (0..100).rev().collect(), |x| x as u32, 100).unwrap();
        assert_eq!(per_part.len(), 4);
        let keys: Vec<u32> = per_part.into_iter().flatten().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_round_still_folds_every_partition_and_counts_a_round() {
        let engine = Engine::new(3);
        let out: Vec<usize> = engine
            .run(
                "empty",
                Vec::<u64>::new(),
                |chunk: &[u64]| chunk.iter().map(|&x| (x as u32, x)).collect(),
                |_: &u32| 0,
                |p, groups: Groups| {
                    assert!(groups.is_empty());
                    p
                },
                &TestCodec,
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2], "one fold output per partition, in order");
        let stats = engine.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_input_records, 0);
        assert_eq!(stats.total_shuffled_records, 0);
        assert_eq!(stats.per_round[0].map_tasks, 0);
    }

    #[test]
    fn reduce_sees_all_values_for_a_key_exactly_once() {
        let engine = Engine::new(4).with_chunk_size(3);
        let input: Vec<(u32, u64)> = (0..1000u64).map(|x| ((x % 10) as u32, x)).collect();
        let out = sums(&engine, input, 10);
        assert_eq!(out.len(), 10);
        for (k, sum) in out {
            // Sum of k, k+10, ..., k+990.
            let expected: u64 = (0..100).map(|i| k as u64 + 10 * i).sum();
            assert_eq!(sum, expected, "wrong sum for key {k}");
        }
        let round = &engine.stats().per_round[0];
        assert_eq!(round.reduce_tasks, 4);
        assert_eq!(round.map_tasks, 334, "an explicit chunk size is honored exactly");
    }

    #[test]
    fn reduce_values_preserve_task_order_within_a_key() {
        // Values for one key arrive in map-task order with each task's
        // emission order preserved.
        let engine = Engine::new(3).with_chunk_size(2);
        let out = groups_round(&engine, (0..20).collect(), |_| 0, 1).unwrap();
        let flat: Groups = out.into_iter().flatten().collect();
        assert_eq!(flat, vec![(0, (0..20).collect::<Vec<u64>>())]);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let run = || {
            let engine = Engine::new(4).with_chunk_size(7);
            groups_round(&engine, (0..200).collect(), |x| (x % 17) as u32, 17).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn split_into_chunks_covers_all_records() {
        let chunks = split_into_chunks((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert_eq!(chunks[3], vec![9]);
        assert!(split_into_chunks(Vec::<u32>::new(), 3).is_empty());
    }

    fn spill_scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snr-engine-spill-{}-{name}", std::process::id()))
    }

    /// Runs the reference workload (value lists per key mod 7) on `engine`
    /// and returns its groups, flattened across partitions, plus the
    /// recorded round stats.
    fn spill_workload(engine: &Engine) -> Result<(Groups, RoundStats), EngineError> {
        let out = groups_round(engine, (0..200).collect(), |x| (x % 7) as u32, 7)?;
        let stats = engine.stats();
        let round = stats.per_round.last().expect("round recorded").clone();
        Ok((out.into_iter().flatten().collect(), round))
    }

    #[test]
    fn spill_output_and_stats_are_bit_identical_across_budgets() {
        let scratch = spill_scratch("budgets");
        let make = |budget: Option<u64>| {
            Engine::new(1).with_chunk_size(16).with_spill_budget(budget).with_scratch_dir(&scratch)
        };
        // Reference: unlimited budget — never touches disk.
        let engine = make(None);
        let (reference, ref_round) = spill_workload(&engine).unwrap();
        assert_eq!(ref_round.spilled_runs, 0);
        assert_eq!(ref_round.spilled_bytes, 0);
        assert_eq!(ref_round.spill_merge_micros, 0);
        let total = ref_round.shuffled_bytes as u64;
        assert!(total > 0);

        // Budget exactly at the threshold: resident bytes never *cross* it.
        let engine = make(Some(total));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_runs, 0, "at-threshold budget must not spill");

        // Tiny budget: smaller than any single map task's output, so every
        // task spills — same end state as budget 0.
        let engine = make(Some(16));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_bytes, round.shuffled_bytes, "tiny budget spills every task");

        // Half the total: early tasks stay resident, later ones spill.
        let engine = make(Some(total / 2));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert!(round.spilled_runs > 0, "half budget must spill");
        assert!(
            round.spilled_bytes > 0 && round.spilled_bytes < round.shuffled_bytes,
            "half budget spills some but not all: {} of {}",
            round.spilled_bytes,
            round.shuffled_bytes
        );

        // Budget 0: every non-empty task spills everything.
        let engine = make(Some(0));
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference);
        assert_eq!(round.spilled_bytes, round.shuffled_bytes, "budget 0 spills every byte");
        // 200 records / chunks of 16 = 13 map tasks, one run each.
        assert_eq!(round.spilled_runs, 13, "every task spills its one partition");

        // The non-spill half of the stats is bit-identical throughout.
        let mut normalized = round.clone();
        normalized.spilled_bytes = 0;
        normalized.spilled_runs = 0;
        normalized.spill_merge_micros = 0;
        normalized.duration = ref_round.duration;
        assert_eq!(normalized, ref_round);

        assert!(!scratch.exists(), "scratch cleaned up");
    }

    #[test]
    fn parallel_spilling_engine_matches_sequential_reference() {
        let scratch = spill_scratch("parallel");
        let (reference, _) = spill_workload(&Engine::new(1).with_chunk_size(16)).unwrap();
        let engine = Engine::new(4)
            .with_chunk_size(16)
            .with_spill_budget(Some(64))
            .with_scratch_dir(&scratch);
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference, "spilling must never change output");
        assert!(round.spilled_runs > 0);
        assert!(!scratch.exists(), "scratch cleaned up");
    }

    #[test]
    fn concurrent_engines_with_default_scratch_dirs_never_share_runs() {
        // Two engines spilling at the same time under their default scratch
        // dirs: each must read back exactly its own run files.
        let input = |salt: u64| (0..4_000u64).map(|x| 2 * x + salt).collect::<Vec<u64>>();
        let expected: Vec<Vec<Groups>> = (0..2)
            .map(|salt| groups_round(&Engine::new(2), input(salt), |x| (x % 50) as u32, 50))
            .collect::<Result<_, _>>()
            .unwrap();
        for _ in 0..20 {
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|salt| {
                        let start = &start;
                        s.spawn(move || {
                            let engine =
                                Engine::new(2).with_chunk_size(500).with_spill_budget(Some(0));
                            start.wait();
                            let out = groups_round(&engine, input(salt), |x| (x % 50) as u32, 50);
                            (out, engine.stats())
                        })
                    })
                    .collect();
                for (salt, handle) in handles.into_iter().enumerate() {
                    let (out, stats) = handle.join().expect("engine thread panicked");
                    assert_eq!(out.unwrap(), expected[salt], "engine {salt}");
                    assert_eq!(stats.per_round[0].spilled_runs, 16, "8 tasks x 2 partitions");
                }
            });
        }
    }

    #[test]
    fn unlimited_budget_never_creates_a_scratch_dir() {
        let scratch = spill_scratch("untouched");
        let engine = Engine::new(1).with_scratch_dir(&scratch);
        spill_workload(&engine).unwrap();
        assert!(!scratch.exists(), "no budget, no disk traffic");
    }

    #[test]
    fn spill_io_fault_is_a_clean_error_with_scratch_removed() {
        let scratch = spill_scratch("io-fault");
        let engine = Engine::new(1)
            .with_chunk_size(16)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(snr_faults::FaultRegistry::parse("spill_io@round1").unwrap());
        let err = spill_workload(&engine).expect_err("injected spill_io must fail the round");
        assert!(matches!(err, EngineError::Spill(ref why) if why.contains("spill_io")), "{err}");
        assert!(!scratch.join("round-1").exists(), "scratch removed on error");
        assert_eq!(engine.stats().rounds, 0, "failed rounds are not recorded");
        // The engine stays usable: the next round succeeds (fault fired once).
        let (out, round) = spill_workload(&engine).unwrap();
        assert!(!out.is_empty());
        assert!(round.spilled_runs > 0);
        assert!(!scratch.exists(), "scratch cleaned after the good round too");
    }

    #[test]
    fn spill_corrupt_fault_is_a_clean_error_never_wrong_output() {
        let scratch = spill_scratch("corrupt-fault");
        let engine = Engine::new(1)
            .with_chunk_size(16)
            .with_spill_budget(Some(0))
            .with_scratch_dir(&scratch)
            .with_fault_registry(snr_faults::FaultRegistry::parse("spill_corrupt@round1").unwrap());
        let err = spill_workload(&engine).expect_err("corrupted run must fail the round");
        assert!(
            matches!(err, EngineError::Spill(ref why) if why.contains("checksum") || why.contains("magic")),
            "{err}"
        );
        assert!(!scratch.exists(), "scratch removed on error");
        assert_eq!(engine.stats().rounds, 0);
    }

    proptest::proptest! {
        #[test]
        fn spilled_rounds_match_in_memory_rounds_on_random_workloads(
            values in proptest::collection::vec((0u32..9, 0u64..1000), 0..200),
            workers in 1usize..4,
            chunk in 1usize..16,
            budget in 0u64..400,
        ) {
            let run = |engine: &Engine, input: Vec<(u32, u64)>| {
                engine.run(
                    "prop-spill",
                    input,
                    |chunk: &[(u32, u64)]| chunk.to_vec(),
                    |&k: &u32| range_partition(k, 9, workers),
                    |_, groups: Groups| groups,
                    &TestCodec,
                )
            };
            let in_memory = Engine::new(workers).with_chunk_size(chunk);
            let expected = run(&in_memory, values.clone()).unwrap();
            let scratch = spill_scratch("prop");
            let spilling = Engine::new(workers)
                .with_chunk_size(chunk)
                .with_spill_budget(Some(budget))
                .with_scratch_dir(&scratch);
            let got = run(&spilling, values).unwrap();
            proptest::prop_assert_eq!(got, expected);
        }

        #[test]
        fn mapreduce_sum_matches_direct_sum(values in proptest::collection::vec(0u64..1000, 0..300),
                                            workers in 1usize..6,
                                            chunk in 1usize..20) {
            let engine = Engine::new(workers).with_chunk_size(chunk);
            let expected: u64 = values.iter().sum();
            let input: Vec<(u32, u64)> = values.into_iter().map(|v| ((v % 13) as u32, v)).collect();
            let total: u64 = sums(&engine, input, 13).into_iter().map(|(_, s)| s).sum();
            proptest::prop_assert_eq!(total, expected);
        }
    }
}
