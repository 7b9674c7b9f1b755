//! The MapReduce execution engine.

use crate::partition::partition_for;
use crate::spill::{self, EngineError, MergeSource, NoSpill, RunReader, SpillCodec};
use crate::stats::{EngineStats, RoundStats};
use parking_lot::Mutex;
use snr_faults::{FaultRegistry, FaultSite};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of input records per map task.
const DEFAULT_CHUNK: usize = 8_192;

/// Environment override for the engine's spill memory budget, in bytes
/// (`0` spills everything; unset or empty means unlimited). A malformed
/// value is reported and ignored — an engine must never fail to construct
/// because of its environment.
pub const ENV_SPILL_BUDGET: &str = "SNR_MR_SPILL_BUDGET";

/// Upper bound on map tasks per worker for [`Engine::run_combined`] rounds.
///
/// Chunked-map jobs typically pay a per-task setup cost (the witness rounds
/// build a task-local `LinkCache`), so their chunks are sized to keep the
/// task count at a small multiple of the worker count instead of letting a
/// tiny configured chunk size explode into thousands of setup-heavy tasks.
const COMBINED_TASKS_PER_WORKER: usize = 4;

/// An in-memory MapReduce engine.
///
/// One engine instance corresponds to one "cluster": it owns a worker count,
/// a partition count for the shuffle, and cumulative [`EngineStats`] across
/// every job (round) it runs. Jobs are expressed as plain closures in two
/// shapes: the classic record-at-a-time [`Engine::run`], and the
/// aggregation-friendly [`Engine::run_combined`] (chunked mappers, a
/// combiner hook, a caller-chosen partitioner, and a per-partition reduce
/// fold).
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    reduce_partitions: usize,
    chunk_size: usize,
    /// True once [`Engine::with_chunk_size`] has been called: an explicitly
    /// configured chunk size is honored exactly, even by the chunked-map
    /// rounds that would otherwise floor it (tests rely on tiny chunks to
    /// exercise fragmentation and combiner merging).
    chunk_size_overridden: bool,
    /// Memory budget for a round's resident post-combine shuffle bytes;
    /// `None` means unlimited (never spill). Only rounds run through
    /// [`Engine::run_combined_spilling`] can spill — the other shapes have
    /// no serialization codec and always hold their shuffle in memory.
    spill_budget: Option<u64>,
    /// Scratch directory for spill runs; `None` uses a per-process
    /// directory under the system temp dir.
    scratch_dir: Option<PathBuf>,
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
    /// Creates an engine with `workers` map/reduce threads and the same
    /// number of shuffle partitions. The spill budget defaults to the
    /// [`ENV_SPILL_BUDGET`] environment variable (unlimited when unset) and
    /// the fault registry to [`FaultRegistry::from_env`].
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Engine {
            workers,
            reduce_partitions: workers.max(1),
            chunk_size: DEFAULT_CHUNK,
            chunk_size_overridden: false,
            spill_budget: spill_budget_from_env(),
            scratch_dir: None,
            round_seq: AtomicU64::new(0),
            faults: Mutex::new(FaultRegistry::from_env()),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    /// Creates a single-threaded engine (useful for deterministic debugging).
    pub fn sequential() -> Self {
        Engine::new(1)
    }

    /// Overrides the number of shuffle partitions (reduce tasks).
    pub fn with_reduce_partitions(mut self, partitions: usize) -> Self {
        self.reduce_partitions = partitions.max(1);
        self
    }

    /// Overrides the number of input records per map task. The given size
    /// is honored exactly by every round shape; without this call,
    /// [`Engine::run_combined`] sizes chunks itself to amortize per-task
    /// setup.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk_size = chunk.max(1);
        self.chunk_size_overridden = true;
        self
    }

    /// Overrides the spill memory budget in bytes: when a round's resident
    /// post-combine shuffle bytes would cross it, map tasks flush their
    /// buckets to disk runs. `Some(0)` spills every non-empty task;
    /// `None` (the default, absent [`ENV_SPILL_BUDGET`]) never spills.
    /// Output is bit-identical at every budget; only residency changes.
    pub fn with_spill_budget(mut self, budget: Option<u64>) -> Self {
        self.spill_budget = budget;
        self
    }

    /// Overrides the scratch directory spill runs are written under (a
    /// `round-<N>` subdirectory per round, removed when the round ends —
    /// successfully or not).
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.scratch_dir = Some(dir.into());
        self
    }

    /// Replaces the fault registry consulted by the spill machinery (tests
    /// inject `spill_io` / `spill_corrupt` without touching the
    /// environment).
    pub fn with_fault_registry(mut self, faults: FaultRegistry) -> Self {
        self.faults = Mutex::new(faults);
        self
    }

    /// The configured spill budget (`None` = unlimited).
    pub fn spill_budget(&self) -> Option<u64> {
        self.spill_budget
    }

    /// Number of worker threads used for map and reduce tasks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shuffle partitions (reduce tasks) per round.
    pub fn reduce_partitions(&self) -> usize {
        self.reduce_partitions
    }

    /// A snapshot of the cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats.lock().clone()
    }

    /// Clears the cumulative statistics.
    pub fn reset_stats(&self) {
        self.stats.lock().clear();
    }

    /// Runs one classic MapReduce round.
    ///
    /// * `map` is applied to every input record and emits intermediate
    ///   `(key, value)` pairs.
    /// * Pairs are shuffled (hash-partitioned and grouped by key).
    /// * `reduce` is applied once per distinct key with all of its values and
    ///   emits output records.
    ///
    /// The output order is deterministic: results are sorted by the reduce
    /// partition index, then by key order within each partition.
    pub fn run<I, K, V, O, M, R>(&self, label: &str, input: Vec<I>, map: M, reduce: R) -> Vec<O>
    where
        I: Send,
        K: Hash + Eq + Ord + Send,
        V: Send,
        O: Send,
        M: Fn(I) -> Vec<(K, V)> + Sync,
        R: Fn(K, Vec<V>) -> Vec<O> + Sync,
    {
        let start = Instant::now();
        let _span = snr_telemetry::span!("round", label = label);
        let parts = self.reduce_partitions;
        let (per_part, round) = self
            .run_inner(
                input,
                self.chunk_size,
                &|chunk: Vec<I>| chunk.into_iter().flat_map(&map).collect::<Vec<(K, V)>>(),
                None::<&fn(&K, &mut Vec<V>)>,
                &|k: &K| partition_for(k, parts),
                &|_: &K, _: &V| std::mem::size_of::<K>() + std::mem::size_of::<V>(),
                &|_, groups: Vec<(K, Vec<V>)>| {
                    let mut out = Vec::new();
                    for (k, vs) in groups {
                        out.extend(reduce(k, vs));
                    }
                    out
                },
                None::<&NoSpill>,
            )
            .expect("the in-memory round shape is infallible");
        let mut output = Vec::new();
        for mut part_out in per_part {
            output.append(&mut part_out);
        }
        self.record_round(label, round, output.len(), start);
        output
    }

    /// Runs one aggregation-oriented MapReduce round: chunked mappers, a
    /// combiner, a caller-chosen partitioner, and a per-partition reduce
    /// fold.
    ///
    /// * `map` sees a whole *chunk* of input records at a time, so it can
    ///   amortize per-task setup (decode caches, scratch arenas) and emit
    ///   already-aggregated pairs instead of one record per contribution.
    /// * `combine` runs on every map task's per-partition bucket before the
    ///   shuffle, once per distinct key with that bucket's values; it may
    ///   shrink (or rewrite) the value list in place. Only the post-combine
    ///   records are shuffled, and [`RoundStats::shuffled_records`] /
    ///   [`RoundStats::shuffled_bytes`] report exactly those — the
    ///   pre-combine volume is kept in [`RoundStats::map_output_records`].
    /// * `part_of` routes a key to a reduce partition (`0..reduce_partitions`),
    ///   replacing the default hash partitioner: range-partitioning dense
    ///   keys keeps each partition a contiguous, sorted key interval.
    /// * `bytes_of` reports the payload size of one post-combine record, so
    ///   [`RoundStats::shuffled_bytes`] stays honest for variable-length
    ///   values (a packed score *row* is `4 + 8·entries` bytes, which
    ///   `size_of` cannot see through a `Vec` header).
    /// * `reduce` is called once per partition with *all* of that
    ///   partition's key groups in ascending key order and folds them into a
    ///   single output value, so per-partition state (a selection sink, an
    ///   accumulator) lives across keys without a global materialization.
    ///
    /// Returns one output per partition, in partition order (deterministic).
    #[allow(clippy::too_many_arguments)]
    pub fn run_combined<I, K, V, O, M, C, P, B, R>(
        &self,
        label: &str,
        input: Vec<I>,
        map: M,
        combine: C,
        part_of: P,
        bytes_of: B,
        reduce: R,
    ) -> Vec<O>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        M: Fn(&[I]) -> Vec<(K, V)> + Sync,
        C: Fn(&K, &mut Vec<V>) + Sync,
        P: Fn(&K) -> usize + Sync,
        B: Fn(&K, &V) -> usize + Sync,
        R: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
    {
        let start = Instant::now();
        let _span = snr_telemetry::span!("round", label = label);
        // Setup-heavy chunked mappers: unless the caller configured a chunk
        // size explicitly, cap the task count at a small multiple of the
        // worker count (see COMBINED_TASKS_PER_WORKER).
        let chunk_size = if self.chunk_size_overridden {
            self.chunk_size
        } else {
            let min_chunk = input.len().div_ceil(self.workers * COMBINED_TASKS_PER_WORKER).max(1);
            self.chunk_size.max(min_chunk)
        };
        let (output, round) = self
            .run_inner(
                input,
                chunk_size,
                &|chunk: Vec<I>| map(&chunk),
                Some(&combine),
                &part_of,
                &bytes_of,
                &reduce,
                None::<&NoSpill>,
            )
            .expect("the in-memory round shape is infallible");
        let outputs = output.len();
        self.record_round(label, round, outputs, start);
        output
    }

    /// [`Engine::run_combined`] with an out-of-core shuffle: `codec`
    /// serializes key groups, and when the round's accumulated post-combine
    /// shuffle bytes would cross the engine's spill budget
    /// ([`Engine::with_spill_budget`]), map tasks flush their sorted
    /// per-partition buckets to checksummed run files and the reduce side
    /// k-way-merges the on-disk runs with the in-memory tail.
    ///
    /// Output is **bit-identical** to [`Engine::run_combined`] at every
    /// budget — only where the shuffle resides changes. With no budget
    /// configured this never touches disk and cannot fail. Spill I/O
    /// failures and run-file corruption (including the injected `spill_io`
    /// / `spill_corrupt` fault sites) surface as a clean
    /// [`EngineError::Spill`] with the round's scratch directory removed
    /// and the round excluded from [`Engine::stats`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_combined_spilling<I, K, V, O, M, C, P, B, R, SC>(
        &self,
        label: &str,
        input: Vec<I>,
        map: M,
        combine: C,
        part_of: P,
        bytes_of: B,
        reduce: R,
        codec: &SC,
    ) -> Result<Vec<O>, EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        M: Fn(&[I]) -> Vec<(K, V)> + Sync,
        C: Fn(&K, &mut Vec<V>) + Sync,
        P: Fn(&K) -> usize + Sync,
        B: Fn(&K, &V) -> usize + Sync,
        R: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        SC: SpillCodec<K, V> + Sync,
    {
        let start = Instant::now();
        let _span = snr_telemetry::span!("round", label = label);
        let chunk_size = if self.chunk_size_overridden {
            self.chunk_size
        } else {
            let min_chunk = input.len().div_ceil(self.workers * COMBINED_TASKS_PER_WORKER).max(1);
            self.chunk_size.max(min_chunk)
        };
        let (output, round) = self.run_inner(
            input,
            chunk_size,
            &|chunk: Vec<I>| map(&chunk),
            Some(&combine),
            &part_of,
            &bytes_of,
            &reduce,
            Some(codec),
        )?;
        let outputs = output.len();
        self.record_round(label, round, outputs, start);
        Ok(output)
    }

    /// Shared round executor: chunked map → per-bucket group (+ optional
    /// combine) → budget check (+ optional spill to disk runs) → shuffle →
    /// per-partition sorted group / k-way run merge → partition fold.
    /// Returns one fold output per partition plus the round's counters
    /// (map tasks, pre/post-combine record counts, key groups, spill
    /// volume). Infallible unless both a codec and a spill budget are
    /// present; the round's scratch directory is removed on every exit
    /// path.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn run_inner<I, K, V, O, MF, CF, PF, BF, RF, SC>(
        &self,
        input: Vec<I>,
        chunk_size: usize,
        map: &MF,
        combine: Option<&CF>,
        part_of: &PF,
        bytes_of: &BF,
        reduce_fold: &RF,
        codec: Option<&SC>,
    ) -> Result<(Vec<O>, RoundCounters), EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        MF: Fn(Vec<I>) -> Vec<(K, V)> + Sync,
        CF: Fn(&K, &mut Vec<V>) + Sync,
        PF: Fn(&K) -> usize + Sync,
        BF: Fn(&K, &V) -> usize + Sync,
        RF: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        SC: SpillCodec<K, V> + Sync,
    {
        // Claim this round's 1-based sequence number up front: it names the
        // scratch subdirectory and is the `R` that `spill_io@roundR` /
        // `spill_corrupt@roundR` fault selectors match.
        let round_no = self.round_seq.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        let spill: Option<SpillState<'_, SC>> = match (codec, self.spill_budget) {
            (Some(codec), Some(budget)) => Some(SpillState {
                codec,
                budget,
                round: round_no,
                round_dir: self.scratch_base().join(format!("round-{round_no}")),
                in_mem: AtomicU64::new(0),
                spilled_bytes: AtomicU64::new(0),
                spilled_runs: AtomicU64::new(0),
                merge_micros: AtomicU64::new(0),
            }),
            _ => None,
        };
        let result = self.run_round(
            input,
            chunk_size,
            map,
            combine,
            part_of,
            bytes_of,
            reduce_fold,
            spill.as_ref(),
        );
        // The run files were fully consumed (or the round failed): remove
        // the round's scratch subdirectory on every exit path, and prune the
        // base scratch dir too once no other round is using it
        // (`remove_dir` is non-recursive, so it only succeeds when empty).
        if let Some(sp) = &spill {
            let _ = std::fs::remove_dir_all(&sp.round_dir);
            if let Some(base) = sp.round_dir.parent() {
                let _ = std::fs::remove_dir(base);
            }
        }
        result
    }

    /// The fallible body of [`Engine::run_inner`]; scratch cleanup stays
    /// with the caller so it runs on error paths too.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn run_round<I, K, V, O, MF, CF, PF, BF, RF, SC>(
        &self,
        input: Vec<I>,
        chunk_size: usize,
        map: &MF,
        combine: Option<&CF>,
        part_of: &PF,
        bytes_of: &BF,
        reduce_fold: &RF,
        spill: Option<&SpillState<'_, SC>>,
    ) -> Result<(Vec<O>, RoundCounters), EngineError>
    where
        I: Send,
        K: Ord + Send,
        V: Send,
        O: Send,
        MF: Fn(Vec<I>) -> Vec<(K, V)> + Sync,
        CF: Fn(&K, &mut Vec<V>) + Sync,
        PF: Fn(&K) -> usize + Sync,
        BF: Fn(&K, &V) -> usize + Sync,
        RF: Fn(usize, Vec<(K, Vec<V>)>) -> O + Sync,
        SC: SpillCodec<K, V> + Sync,
    {
        let input_records = input.len();
        let parts = self.reduce_partitions;

        // ---- Map phase -----------------------------------------------------
        // Split the input into chunks and map them on the worker pool. Each
        // worker emits `parts` buckets of key groups, already sorted by key
        // and combined, so the shuffle only moves grouped records and the
        // reduce-side sort sees nearly-sorted runs.
        let chunks: Vec<(usize, Vec<I>)> =
            split_into_chunks(input, chunk_size).into_iter().enumerate().collect();
        let map_tasks = chunks.len();
        // Each map task tallies its own post-combine shuffle volume
        // (records and bytes) while the data is still hot in its worker, so
        // the single-threaded transpose below only sums per-task scalars.
        // When a spill budget is active the task then tries to *reserve*
        // its bytes against the shared budget; if the reservation would
        // cross it, the task flushes its buckets to disk runs instead and
        // keeps only empty placeholders in memory. Which tasks spill can
        // vary run to run under parallelism (reservation order races), but
        // the merged output is bit-identical regardless.
        type MapOut<K, V> = (TaskTally, Vec<Vec<(K, Vec<V>)>>, Vec<Option<PathBuf>>);
        let map_task = |(task, chunk): (usize, Vec<I>)| -> Result<MapOut<K, V>, EngineError> {
            let pairs = map(chunk);
            let mut tally =
                TaskTally { emitted: pairs.len(), shuffled_records: 0, shuffled_bytes: 0 };
            let mut flat: Vec<Vec<(K, V)>> = (0..parts).map(|_| Vec::new()).collect();
            for (k, v) in pairs {
                let p = part_of(&k);
                assert!(p < parts, "partitioner returned {p} for {parts} partitions");
                flat[p].push((k, v));
            }
            let mut buckets = Vec::with_capacity(parts);
            for bucket in flat {
                let mut groups = group_sorted(bucket);
                for (k, vs) in &mut groups {
                    if let Some(combine) = combine {
                        combine(k, vs);
                    }
                    tally.shuffled_records += vs.len();
                    tally.shuffled_bytes += vs.iter().map(|v| bytes_of(k, v)).sum::<usize>();
                }
                buckets.push(groups);
            }
            let mut run_paths: Vec<Option<PathBuf>> = vec![None; parts];
            if let Some(sp) = spill {
                let bytes = tally.shuffled_bytes as u64;
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
                            sp.codec,
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
        let mut map_output_records = 0usize;
        let mut shuffled_records = 0usize;
        let mut shuffled_bytes = 0usize;
        let mut columns: Vec<Vec<Vec<(K, Vec<V>)>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        let mut run_columns: Vec<Vec<Option<PathBuf>>> =
            (0..parts).map(|_| Vec::with_capacity(map_tasks)).collect();
        for task_result in mapped {
            let (tally, mut worker_buckets, mut worker_runs) = task_result?;
            map_output_records += tally.emitted;
            shuffled_records += tally.shuffled_records;
            shuffled_bytes += tally.shuffled_bytes;
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
                let mut sources: Vec<MergeSource<'_, K, V, SC>> = Vec::with_capacity(col.len());
                for (bucket, run) in col.into_iter().zip(runs) {
                    match run {
                        Some(path) => {
                            sources.push(MergeSource::Disk(RunReader::open(&path, sp.codec)?))
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
            Ok((groups.len(), reduce_fold(p, groups)))
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
            map_output_records,
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

    /// The engine's spill scratch base directory; each round uses a
    /// `round-<N>` subdirectory beneath it.
    fn scratch_base(&self) -> PathBuf {
        self.scratch_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("snr-mr-spill-{}", std::process::id()))
        })
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
            map_output_records: c.map_output_records,
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

/// Reads [`ENV_SPILL_BUDGET`]; malformed values are reported and ignored.
fn spill_budget_from_env() -> Option<u64> {
    let raw = std::env::var(ENV_SPILL_BUDGET).ok().filter(|s| !s.is_empty())?;
    match raw.parse::<u64>() {
        Ok(bytes) => Some(bytes),
        Err(_) => {
            snr_telemetry::warn!("ignoring unparseable {ENV_SPILL_BUDGET}={raw:?} (want bytes)");
            None
        }
    }
}

/// Per-round spill bookkeeping shared by the map and reduce workers.
struct SpillState<'a, SC> {
    codec: &'a SC,
    /// Resident post-combine bytes allowed before tasks start spilling.
    budget: u64,
    /// 1-based engine round number (fault selectors, run-file headers).
    round: u32,
    /// This round's scratch subdirectory (created lazily on first spill,
    /// removed on every exit path).
    round_dir: PathBuf,
    /// Post-combine bytes currently reserved as in-memory.
    in_mem: AtomicU64,
    /// Post-combine bytes flushed to disk runs.
    spilled_bytes: AtomicU64,
    /// Run files written.
    spilled_runs: AtomicU64,
    /// Microseconds reduce tasks spent k-way-merging runs.
    merge_micros: AtomicU64,
}

/// Per-map-task shuffle tally, computed inside the task's worker.
struct TaskTally {
    emitted: usize,
    shuffled_records: usize,
    shuffled_bytes: usize,
}

/// Per-round counters accumulated by [`Engine::run_inner`]; the public entry
/// points fill in the label, output count, and duration.
struct RoundCounters {
    input_records: usize,
    map_output_records: usize,
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
/// the merge sort is stable, so a key's values concatenate in task order,
/// exactly as the old record-at-a-time grouping produced them.
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

    fn word_count(engine: &Engine, docs: Vec<String>) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = engine.run(
            "wc",
            docs,
            |doc: String| doc.split_whitespace().map(|w| (w.to_string(), 1usize)).collect(),
            |w, ones| vec![(w, ones.len())],
        );
        out.sort();
        out
    }

    /// The same word count as a chunked round with a summing combiner.
    fn word_count_combined(engine: &Engine, docs: Vec<String>) -> Vec<(String, usize)> {
        let parts = engine.reduce_partitions();
        let per_part: Vec<Vec<(String, usize)>> = engine.run_combined(
            "wc-combined",
            docs,
            |chunk: &[String]| {
                chunk
                    .iter()
                    .flat_map(|doc| doc.split_whitespace().map(|w| (w.to_string(), 1usize)))
                    .collect()
            },
            |_w, counts: &mut Vec<usize>| {
                let total: usize = counts.iter().sum();
                counts.clear();
                counts.push(total);
            },
            |w: &String| partition_for(w, parts),
            |w: &String, _: &usize| w.len() + 8,
            |_, groups| {
                groups.into_iter().map(|(w, counts)| (w, counts.iter().sum())).collect::<Vec<_>>()
            },
        );
        let mut out: Vec<(String, usize)> = per_part.into_iter().flatten().collect();
        out.sort();
        out
    }

    #[test]
    fn word_count_single_threaded() {
        let engine = Engine::sequential();
        let out = word_count(&engine, vec!["x y x".into(), "y z".into()]);
        assert_eq!(out, vec![("x".into(), 2), ("y".into(), 2), ("z".into(), 1)]);
    }

    #[test]
    fn word_count_multi_threaded_matches_sequential() {
        let seq = Engine::sequential();
        let par = Engine::new(4).with_chunk_size(1);
        let docs: Vec<String> = (0..50).map(|i| format!("w{} w{} shared", i, i % 7)).collect();
        assert_eq!(word_count(&seq, docs.clone()), word_count(&par, docs));
    }

    #[test]
    fn chunked_map_with_combiner_round_equals_record_at_a_time_round() {
        let docs: Vec<String> =
            (0..60).map(|i| format!("w{} w{} shared again", i % 9, i % 4)).collect();
        for workers in [1usize, 3] {
            let classic = Engine::new(workers).with_chunk_size(7);
            let combined = Engine::new(workers).with_chunk_size(7);
            assert_eq!(
                word_count(&classic, docs.clone()),
                word_count_combined(&combined, docs.clone()),
                "workers={workers}"
            );
            // The combiner collapsed each (task, word) repeat before the
            // shuffle; the classic round shuffled every single `1`.
            let classic_round = &classic.stats().per_round[0];
            let combined_round = &combined.stats().per_round[0];
            assert_eq!(
                classic_round.shuffled_records, classic_round.map_output_records,
                "no combiner: shuffle == map output"
            );
            assert_eq!(combined_round.map_output_records, classic_round.map_output_records);
            assert!(
                combined_round.shuffled_records < combined_round.map_output_records,
                "combiner must shrink the shuffle: {} vs {}",
                combined_round.shuffled_records,
                combined_round.map_output_records
            );
        }
    }

    #[test]
    fn combiner_accounting_is_pinned_on_a_known_workload() {
        // 12 records, 3 distinct keys, chunks of 4 → 3 map tasks of exactly
        // 4 records each. Keys are `i % 3`, so every chunk holds keys
        // {0, 1, 2} with 4 records collapsing to 3 per chunk.
        let engine = Engine::sequential().with_chunk_size(4).with_reduce_partitions(2);
        let input: Vec<u32> = (0..12).collect();
        let out: Vec<(u32, u32)> = engine
            .run_combined(
                "pinned",
                input,
                |chunk: &[u32]| chunk.iter().map(|&x| (x % 3, 1u32)).collect(),
                |_k, ones: &mut Vec<u32>| {
                    let total: u32 = ones.iter().sum();
                    ones.clear();
                    ones.push(total);
                },
                |k: &u32| (*k as usize) % 2,
                |_: &u32, _: &u32| 8,
                |_, groups| {
                    groups
                        .into_iter()
                        .map(|(k, counts)| (k, counts.iter().sum::<u32>()))
                        .collect::<Vec<_>>()
                },
            )
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(out, vec![(0, 4), (2, 4), (1, 4)], "partition order, then key order");
        let stats = engine.stats();
        let round = &stats.per_round[0];
        assert_eq!(round.input_records, 12);
        assert_eq!(round.map_output_records, 12, "mappers emitted one pair per record");
        assert_eq!(round.shuffled_records, 9, "3 tasks x 3 combined keys");
        assert_eq!(round.shuffled_bytes, 9 * 8, "u32 key + u32 value");
        assert_eq!(round.key_groups, 3);
        assert_eq!(stats.total_shuffled_records, 9);
        assert_eq!(stats.total_shuffled_bytes, 72);
        let summary = stats.stats_summary();
        assert!(summary.contains("1 round"), "{summary}");
        assert!(summary.contains("9 shuffled"), "{summary}");
    }

    #[test]
    fn range_partitioned_combined_output_is_globally_key_sorted() {
        use crate::partition::range_partition;
        let engine = Engine::new(3).with_reduce_partitions(4).with_chunk_size(5);
        let input: Vec<u32> = (0..100).rev().collect();
        let per_part: Vec<Vec<u32>> = engine.run_combined(
            "range",
            input,
            |chunk: &[u32]| chunk.iter().map(|&x| (x, ())).collect(),
            |_, _: &mut Vec<()>| {},
            |k: &u32| range_partition(*k, 100, 4),
            |_: &u32, _: &()| 4,
            |_, groups| groups.into_iter().map(|(k, _)| k).collect::<Vec<u32>>(),
        );
        assert_eq!(per_part.len(), 4);
        let flat: Vec<u32> = per_part.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_input_produces_empty_output_and_counts_a_round() {
        let engine = Engine::new(2);
        let out: Vec<(u32, u32)> =
            engine.run("empty", Vec::<u32>::new(), |x| vec![(x, x)], |k, _| vec![(k, k)]);
        assert!(out.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_input_records, 0);
        assert_eq!(stats.total_shuffled_records, 0);
    }

    #[test]
    fn empty_combined_round_still_folds_every_partition() {
        let engine = Engine::new(2).with_reduce_partitions(3);
        let out: Vec<usize> = engine.run_combined(
            "empty-combined",
            Vec::<u32>::new(),
            |chunk: &[u32]| chunk.iter().map(|&x| (x, x)).collect(),
            |_, _: &mut Vec<u32>| {},
            |_: &u32| 0,
            |_: &u32, _: &u32| 8,
            |p, groups| {
                assert!(groups.is_empty());
                p
            },
        );
        assert_eq!(out, vec![0, 1, 2], "one fold output per partition, in order");
    }

    #[test]
    fn stats_track_shuffled_and_output_records() {
        let engine = Engine::new(3).with_chunk_size(2);
        let input: Vec<u32> = (0..10).collect();
        // Each record emits 2 pairs; keys collapse into 5 groups.
        let out: Vec<(u32, usize)> = engine.run(
            "pairs",
            input,
            |x| vec![(x % 5, x), (x % 5, x + 100)],
            |k, vs| vec![(k, vs.len())],
        );
        assert_eq!(out.len(), 5);
        let stats = engine.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_input_records, 10);
        assert_eq!(stats.total_shuffled_records, 20);
        assert_eq!(stats.total_output_records, 5);
        assert_eq!(stats.per_round[0].key_groups, 5);
        assert_eq!(stats.per_round[0].map_output_records, 20);
        assert_eq!(stats.per_round[0].shuffled_bytes, 20 * 8);
        // Every group got both pairs from each of its 2 source records.
        for (_, count) in out {
            assert_eq!(count, 4);
        }
    }

    #[test]
    fn chained_rounds_accumulate_round_count() {
        let engine = Engine::new(2);
        let first: Vec<(u32, u32)> = engine.run(
            "r1",
            vec![1u32, 2, 3],
            |x| vec![(x % 2, x)],
            |k, vs| vec![(k, vs.iter().sum())],
        );
        let second: Vec<(u32, u32)> =
            engine.run("r2", first, |(k, v)| vec![(k, v * 2)], |k, vs| vec![(k, vs.iter().sum())]);
        assert_eq!(engine.stats().rounds, 2);
        assert!(!second.is_empty());
    }

    #[test]
    fn reduce_sees_all_values_for_a_key_exactly_once() {
        let engine = Engine::new(4).with_chunk_size(3).with_reduce_partitions(5);
        let input: Vec<u64> = (0..1000).collect();
        let mut out: Vec<(u64, u64)> = engine.run(
            "sum",
            input,
            |x| vec![(x % 10, x)],
            |k, vs| vec![(k, vs.into_iter().sum::<u64>())],
        );
        out.sort();
        assert_eq!(out.len(), 10);
        for (k, sum) in out {
            // Sum of k, k+10, ..., k+990 = 100*k + 10*(0+10+...+990)/10
            let expected: u64 = (0..100).map(|i| k + 10 * i).sum();
            assert_eq!(sum, expected, "wrong sum for key {k}");
        }
        let stats = engine.stats();
        assert_eq!(stats.per_round[0].reduce_tasks, 5);
        assert!(stats.per_round[0].map_tasks >= 300);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        let run = || {
            let engine = Engine::new(4).with_chunk_size(7);
            let input: Vec<u32> = (0..200).collect();
            engine.run(
                "det",
                input,
                |x| vec![(x % 17, x)],
                |k, mut vs| {
                    vs.sort_unstable();
                    vec![(k, vs)]
                },
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reduce_values_preserve_task_order_within_a_key() {
        // Values for one key must arrive in map-task order with each task's
        // emission order preserved — the contract the stable sort-based
        // shuffle keeps from the old HashMap grouping.
        let engine = Engine::new(3).with_chunk_size(2);
        let input: Vec<u32> = (0..20).collect();
        let out: Vec<Vec<u32>> = engine.run("order", input, |x| vec![((), x)], |_, vs| vec![vs]);
        assert_eq!(out, vec![(0..20).collect::<Vec<u32>>()]);
    }

    #[test]
    fn split_into_chunks_covers_all_records() {
        let chunks = split_into_chunks((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10);
        assert_eq!(chunks[3], vec![9]);
        assert!(split_into_chunks(Vec::<u32>::new(), 3).is_empty());
    }

    use crate::spill::tests::U32U64Codec as TestCodec;

    fn spill_scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snr-engine-spill-{}-{name}", std::process::id()))
    }

    /// Runs the reference workload (sorted value lists per key mod 7) on
    /// `engine` through the spillable shape and returns per-partition
    /// output plus the recorded round stats.
    type SpillOutput = Vec<Vec<(u32, Vec<u64>)>>;

    fn spill_workload(engine: &Engine) -> Result<(SpillOutput, RoundStats), EngineError> {
        let parts = engine.reduce_partitions();
        let input: Vec<u64> = (0..200).collect();
        let out = engine.run_combined_spilling(
            "spill-workload",
            input,
            |chunk: &[u64]| chunk.iter().map(|&x| ((x % 7) as u32, x)).collect(),
            |_k, _vs: &mut Vec<u64>| {},
            |k: &u32| partition_for(k, parts),
            |_: &u32, _: &u64| 12,
            |_, groups: Vec<(u32, Vec<u64>)>| groups,
            &TestCodec,
        )?;
        let stats = engine.stats();
        Ok((out, stats.per_round.last().expect("round recorded").clone()))
    }

    #[test]
    fn spill_output_and_stats_are_bit_identical_across_budgets() {
        let scratch = spill_scratch("budgets");
        let make = |budget: Option<u64>| {
            Engine::sequential()
                .with_chunk_size(16)
                .with_reduce_partitions(3)
                .with_spill_budget(budget)
                .with_scratch_dir(&scratch)
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
        // 200 records / chunks of 16 = 13 map tasks, each hitting up to 3
        // partitions; sequential engine makes the count deterministic.
        assert!(round.spilled_runs >= 13, "every task spills at least one run");

        // The non-spill half of the stats is bit-identical throughout.
        let mut normalized = round.clone();
        normalized.spilled_bytes = 0;
        normalized.spilled_runs = 0;
        normalized.spill_merge_micros = 0;
        normalized.duration = ref_round.duration;
        assert_eq!(normalized, ref_round);

        assert!(!scratch.join("round-1").exists(), "scratch cleaned up");
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn parallel_spilling_engine_matches_sequential_reference() {
        let scratch = spill_scratch("parallel");
        let (reference, _) =
            spill_workload(&Engine::sequential().with_chunk_size(16).with_reduce_partitions(3))
                .unwrap();
        let engine = Engine::new(4)
            .with_chunk_size(16)
            .with_reduce_partitions(3)
            .with_spill_budget(Some(64))
            .with_scratch_dir(&scratch);
        let (out, round) = spill_workload(&engine).unwrap();
        assert_eq!(out, reference, "spilling must never change output");
        assert!(round.spilled_runs > 0);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn unlimited_budget_never_creates_a_scratch_dir() {
        let scratch = spill_scratch("untouched");
        let engine = Engine::sequential().with_scratch_dir(&scratch);
        spill_workload(&engine).unwrap();
        assert!(!scratch.exists(), "no budget, no disk traffic");
    }

    #[test]
    fn spill_io_fault_is_a_clean_error_with_scratch_removed() {
        let scratch = spill_scratch("io-fault");
        let engine = Engine::sequential()
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
        let engine = Engine::sequential()
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
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn spilling_shape_without_budget_equals_run_combined() {
        // The spillable entry point with no budget is a drop-in for
        // run_combined: same output, same stats, zero spill counters.
        let a = Engine::sequential().with_chunk_size(16).with_reduce_partitions(3);
        let (out_a, round_a) = spill_workload(&a).unwrap();
        let parts = 3;
        let b = Engine::sequential().with_chunk_size(16).with_reduce_partitions(parts);
        let out_b: Vec<Vec<(u32, Vec<u64>)>> = b.run_combined(
            "spill-workload",
            (0..200u64).collect(),
            |chunk: &[u64]| chunk.iter().map(|&x| ((x % 7) as u32, x)).collect(),
            |_k, _vs: &mut Vec<u64>| {},
            |k: &u32| partition_for(k, parts),
            |_: &u32, _: &u64| 12,
            |_, groups: Vec<(u32, Vec<u64>)>| groups,
        );
        assert_eq!(out_a, out_b);
        let round_b = b.stats().per_round[0].clone();
        assert_eq!(round_a.shuffled_bytes, round_b.shuffled_bytes);
        assert_eq!(round_a.spilled_runs, 0);
    }

    proptest::proptest! {
        #[test]
        fn spilled_rounds_match_in_memory_rounds_on_random_workloads(
            values in proptest::collection::vec((0u32..9, 0u64..1000), 0..200),
            workers in 1usize..4,
            chunk in 1usize..16,
            budget in 0u64..400,
        ) {
            let parts = 3usize;
            let reference = Engine::sequential().with_chunk_size(chunk).with_reduce_partitions(parts);
            let run = |engine: &Engine, input: Vec<(u32, u64)>| {
                engine.run_combined_spilling(
                    "prop-spill",
                    input,
                    |chunk: &[(u32, u64)]| chunk.to_vec(),
                    |_k, _vs: &mut Vec<u64>| {},
                    |k: &u32| partition_for(k, parts),
                    |_: &u32, _: &u64| 12,
                    |_, groups: Vec<(u32, Vec<u64>)>| groups,
                    &TestCodec,
                )
            };
            let expected = run(&reference, values.clone()).unwrap();
            let scratch = spill_scratch("prop");
            let spilling = Engine::new(workers)
                .with_chunk_size(chunk)
                .with_reduce_partitions(parts)
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
            let out: Vec<u64> = engine.run(
                "psum",
                values,
                |x| vec![((), x)],
                |_, vs| vec![vs.into_iter().sum::<u64>()],
            );
            let total: u64 = out.into_iter().sum();
            proptest::prop_assert_eq!(total, expected);
        }

        #[test]
        fn combined_and_classic_rounds_agree_on_random_sums(
            values in proptest::collection::vec((0u32..12, 0u64..1000), 0..200),
            workers in 1usize..5,
            chunk in 1usize..16,
            parts in 1usize..5,
        ) {
            let classic = Engine::new(workers).with_chunk_size(chunk).with_reduce_partitions(parts);
            let mut expected: Vec<(u32, u64)> = classic.run(
                "csum",
                values.clone(),
                |(k, v)| vec![(k, v)],
                |k, vs| vec![(k, vs.into_iter().sum::<u64>())],
            );
            expected.sort_unstable();
            let combined = Engine::new(workers).with_chunk_size(chunk).with_reduce_partitions(parts);
            let mut got: Vec<(u32, u64)> = combined
                .run_combined(
                    "csum-combined",
                    values,
                    |chunk: &[(u32, u64)]| chunk.to_vec(),
                    |_, vs: &mut Vec<u64>| {
                        let total = vs.iter().sum();
                        vs.clear();
                        vs.push(total);
                    },
                    |k: &u32| partition_for(k, parts),
                    |_: &u32, _: &u64| 12,
                    |_, groups| {
                        groups
                            .into_iter()
                            .map(|(k, vs)| (k, vs.iter().sum::<u64>()))
                            .collect::<Vec<_>>()
                    },
                )
                .into_iter()
                .flatten()
                .collect();
            got.sort_unstable();
            proptest::prop_assert_eq!(got, expected);
        }
    }
}
