//! Spill-to-disk run files for the out-of-core shuffle.
//!
//! When a round's accumulated shuffle bytes cross the engine's memory
//! budget (see [`crate::Engine::with_spill_budget`]), map tasks flush
//! their sorted per-partition buckets to *run files* in a scratch directory
//! and the reduce side k-way-merges the on-disk runs with the in-memory
//! tail as it folds them. This module holds the pieces: the [`SpillCodec`]
//! record format, the checksummed run-file writer/reader, and the streaming
//! merge.
//!
//! # Run-file format
//!
//! The framing is [`snr_store::wire`]'s, shared with the segment files
//! (magic, version, and the [`snr_store::Checksum64`] footer), so
//! corruption is always detected before any group is decoded:
//!
//! ```text
//! [ magic "SNRM" | version u16 | round u32 | task u32 | partition u32
//!   | group_count u64 ]                                      -- 26 bytes
//! group_count × [ len u32 | codec payload ]                  -- body
//! [ Checksum64 of everything above ]                         -- 8 bytes
//! ```
//!
//! The payload belongs to the codec: the framing above never looks inside
//! it, so a codec may change how it lays out a group (the packed-row codec
//! in `snr-core` writes an entry in 4 bytes when it fits) without touching
//! the framing or [`RUN_VERSION`].
//!
//! A file of any other version (version 1 had an older footer checksum)
//! is rejected.
//!
//! All integers are little-endian. A reader first streams the whole file
//! through the checksum (`RunReader::open`) and only then decodes groups
//! one at a time, so a flipped byte or a truncated tail surfaces as a clean
//! [`EngineError::Spill`] — never a panic, never a silently wrong group.

use snr_faults::{FaultRegistry, FaultSite};
use snr_store::wire::{self, Format, HashWriter, Reader, WireError, Writer};
use snr_store::Checksum64;
use std::collections::BinaryHeap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Magic prefix of a spill run file ("SNR Mapreduce run").
pub const RUN_MAGIC: [u8; 4] = *b"SNRM";
/// Run-file format version.
pub const RUN_VERSION: u16 = 2;
/// Header bytes: magic + version + round + task + partition + group count.
pub const RUN_HEADER_LEN: usize = 4 + 2 + 4 + 4 + 4 + 8;
/// Trailer bytes: the [`Checksum64`] of header + body.
pub const RUN_FOOTER_LEN: usize = wire::FOOTER_LEN;
const RUN_FORMAT: Format = Format { magic: RUN_MAGIC, version: RUN_VERSION, name: "spill run" };
/// Block size of the run writer and buffer size of the reader. Runs are
/// written and read front to back in one stream each, so large blocks turn
/// the small per-group writes and reads into few large system calls.
const RUN_IO_BUF: usize = 1 << 20;

/// Error surfaced by a round ([`crate::Engine::run`]).
///
/// A round that stays in memory is infallible; every variant here
/// originates from the spill machinery — scratch-dir I/O, run-file
/// corruption, or an injected `spill_io`/`spill_corrupt` fault. The engine
/// guarantees that by the time an `EngineError` reaches the caller the
/// round's scratch directory has been removed and no partial output was
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A spill run file could not be written, read back, or validated.
    Spill(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spill(why) => write!(f, "spill error: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The record format of one round's shuffle: what a `(key, value)` record
/// costs and how a `(K, Vec<V>)` key group is written to a run file.
///
/// The engine itself places no serialization bound on keys or values, so
/// every caller of [`crate::Engine::run`] supplies a codec for its concrete
/// types (e.g. the packed score-row codec in `snr-core`).
///
/// The encoding contract is exact round-tripping: `decode_group(encode_group(k, vs))`
/// must reproduce `(k, vs)` bit-identically, because the spilled and
/// in-memory halves of a shuffle are merged back together and the output is
/// pinned byte-for-byte against the all-in-RAM path.
pub trait SpillCodec<K, V> {
    /// Shuffle bytes charged for one `(key, value)` record. The sum over a
    /// round's records is [`crate::RoundStats::shuffled_bytes`], and each map
    /// task reserves its sum against the spill budget. It is an accounting
    /// charge, neither the size held in memory nor the encoded length: a
    /// packed score row charges `4 + 8·scored` for its scored pairs, though
    /// it holds and encodes only its entries at or above the phase
    /// threshold, in 4 bytes each when they fit.
    fn bytes_of(&self, key: &K, value: &V) -> usize;
    /// Appends one encoded key group to `out`, or fails with a descriptive
    /// string (a length that does not fit its prefix, say); the run writer
    /// wraps it in [`EngineError::Spill`] naming the run file.
    fn encode_group(&self, key: &K, values: &[V], out: &mut Vec<u8>) -> Result<(), String>;
    /// Decodes one key group previously produced by
    /// [`SpillCodec::encode_group`]. Errors are descriptive strings; the
    /// engine wraps them in [`EngineError::Spill`].
    fn decode_group(&self, bytes: &[u8]) -> Result<(K, Vec<V>), String>;
}

fn io_spill(path: &Path, what: &str, e: std::io::Error) -> EngineError {
    EngineError::Spill(format!("{what} {}: {e}", path.display()))
}

fn frame_error(path: &Path, e: WireError) -> EngineError {
    EngineError::Spill(match e {
        WireError::Version { found, .. } => {
            format!("run file {} has unsupported version {found}", path.display())
        }
        e => format!("run file {}: {e}", path.display()),
    })
}

/// Writes one map task's sorted partition bucket as a checksummed run file.
/// Returns the file size in bytes. Consults `faults` at the `spill_io` site
/// *after* the header is out, so an injected hit leaves a partial file
/// behind — exactly what a real mid-spill I/O error does — for the round's
/// scratch cleanup to remove.
pub(crate) fn write_run<K, V, SC: SpillCodec<K, V>>(
    path: &Path,
    round: u32,
    task: u32,
    partition: u32,
    groups: &[(K, Vec<V>)],
    codec: &SC,
    faults: &Mutex<FaultRegistry>,
) -> Result<u64, EngineError> {
    let file = File::create(path).map_err(|e| io_spill(path, "creating run file", e))?;
    let mut w = HashWriter::new(file);
    let write_error = |e| io_spill(path, "writing run file", e);

    let mut block = Vec::with_capacity(RUN_IO_BUF);
    let mut h = Writer::new(&mut block);
    RUN_FORMAT.put_header(&mut h);
    for v in [round, task, partition] {
        h.u32(v);
    }
    h.u64(groups.len() as u64);
    w.write_all(&block).map_err(write_error)?;
    block.clear();

    if faults
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .fire(FaultSite::SpillIo, None, Some(round))
        .is_some()
    {
        return Err(EngineError::Spill(format!(
            "injected spill_io fault writing {} (round {round})",
            path.display()
        )));
    }

    // Groups are encoded straight into the block, each behind a length
    // prefix that is reserved, then patched once the codec has appended;
    // a full block goes out in one write.
    for (k, vs) in groups {
        let start = block.len();
        block.extend_from_slice(&[0; 4]);
        codec.encode_group(k, vs, &mut block).map_err(|why| {
            EngineError::Spill(format!("encoding group for {}: {why}", path.display()))
        })?;
        let len = u32::try_from(block.len() - start - 4).map_err(|_| {
            EngineError::Spill(format!("group exceeds u32 length in {}", path.display()))
        })?;
        block[start..start + 4].copy_from_slice(&len.to_le_bytes());
        if block.len() >= RUN_IO_BUF {
            w.write_all(&block).map_err(write_error)?;
            block.clear();
        }
    }
    w.write_all(&block).map_err(write_error)?;
    let (_, total) = w.finish().map_err(|e| io_spill(path, "flushing run file", e))?;
    Ok(total)
}

/// Streaming reader over one run file.
///
/// [`RunReader::open`] makes a full checksum pass (bounded buffer) before
/// any decoding, so by the time [`RunReader::next_group`] hands groups out
/// the length prefixes are known-good and memory stays bounded by one group.
pub(crate) struct RunReader<'a, K, V, SC> {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
    /// The current group's payload, reused across groups.
    payload: Vec<u8>,
    codec: &'a SC,
    _marker: PhantomData<(K, V)>,
}

impl<'a, K, V, SC: SpillCodec<K, V>> RunReader<'a, K, V, SC> {
    /// Validates the file's framing and checksum, then positions a buffered
    /// reader at the first group.
    pub(crate) fn open(path: &Path, codec: &'a SC) -> Result<Self, EngineError> {
        let file = File::open(path).map_err(|e| io_spill(path, "opening run file", e))?;
        let len = file.metadata().map_err(|e| io_spill(path, "inspecting run file", e))?.len();
        if (len as usize) < RUN_HEADER_LEN + RUN_FOOTER_LEN {
            return Err(EngineError::Spill(format!(
                "run file {} truncated: {len} bytes, need at least {}",
                path.display(),
                RUN_HEADER_LEN + RUN_FOOTER_LEN
            )));
        }
        // Pass 1: stream everything but the footer through the checksum,
        // straight out of the reader's buffer.
        let mut reader = BufReader::with_capacity(RUN_IO_BUF, file);
        let mut hash = Checksum64::new();
        let mut left = len - RUN_FOOTER_LEN as u64;
        while left > 0 {
            let chunk = reader.fill_buf().map_err(|e| io_spill(path, "reading run file", e))?;
            if chunk.is_empty() {
                let eof = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
                return Err(io_spill(path, "reading run file", eof));
            }
            let take = chunk.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            hash.update(&chunk[..take]);
            reader.consume(take);
            left -= take as u64;
        }
        let mut footer = [0u8; RUN_FOOTER_LEN];
        reader.read_exact(&mut footer).map_err(|e| io_spill(path, "reading run file", e))?;
        wire::verify_footer(&footer, hash.finish()).map_err(|e| frame_error(path, e))?;
        // Pass 2: rewind and parse the header; groups stream from here.
        reader.seek(SeekFrom::Start(0)).map_err(|e| io_spill(path, "rewinding run file", e))?;
        let mut header = [0u8; RUN_HEADER_LEN];
        reader.read_exact(&mut header).map_err(|e| io_spill(path, "reading run file", e))?;
        let mut r = Reader::new(&header);
        // Round, task and partition are for humans inspecting the file.
        let remaining = RUN_FORMAT
            .check_header(&mut r)
            .and_then(|()| r.take(12))
            .and_then(|_| r.u64())
            .map_err(|e| frame_error(path, e))?;
        Ok(RunReader {
            path: path.to_path_buf(),
            reader,
            remaining,
            payload: Vec::new(),
            codec,
            _marker: PhantomData,
        })
    }

    /// The next key group, or `None` after the last one.
    pub(crate) fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, EngineError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut len = [0u8; 4];
        self.reader
            .read_exact(&mut len)
            .map_err(|e| io_spill(&self.path, "reading run file", e))?;
        self.payload.resize(u32::from_le_bytes(len) as usize, 0);
        self.reader
            .read_exact(&mut self.payload)
            .map_err(|e| io_spill(&self.path, "reading run file", e))?;
        self.codec.decode_group(&self.payload).map(Some).map_err(|why| {
            EngineError::Spill(format!("decoding group from {}: {why}", self.path.display()))
        })
    }
}

/// One reduce-side merge input: a map task's bucket, either still in memory
/// or read back from its spill run.
pub(crate) enum MergeSource<'a, K, V, SC> {
    /// The task's bucket never spilled.
    Mem(std::vec::IntoIter<(K, Vec<V>)>),
    /// The task's bucket lives in a run file.
    Disk(RunReader<'a, K, V, SC>),
}

impl<K, V, SC: SpillCodec<K, V>> MergeSource<'_, K, V, SC> {
    fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, EngineError> {
        match self {
            MergeSource::Mem(iter) => Ok(iter.next()),
            MergeSource::Disk(reader) => reader.next_group(),
        }
    }
}

/// Heap entry ordered by `(key, task)`: the order in which concatenating a
/// partition's buckets in task order and stable-sorting them by key would
/// list the groups.
struct HeapGroup<K, V> {
    key: K,
    task: usize,
    values: Vec<V>,
}

impl<K: Ord, V> PartialEq for HeapGroup<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.task == other.task
    }
}
impl<K: Ord, V> Eq for HeapGroup<K, V> {}
impl<K: Ord, V> PartialOrd for HeapGroup<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for HeapGroup<K, V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and the merge wants the
        // smallest (key, task) first.
        (&other.key, other.task).cmp(&(&self.key, self.task))
    }
}

/// One partition's key groups as a stream: a k-way merge of its sources
/// (in map-task order) into ascending keys, a key's values concatenated in
/// task order.
///
/// Each source yields strictly ascending keys (each map task's bucket was
/// sorted and grouped before it spilled), so ordering heap entries by
/// `(key, task)` yields exactly what concatenating the buckets in task
/// order and stable-sorting by key would. The stream holds one group per
/// source, never the whole partition.
///
/// A read or decode error ends the stream (the group it interrupts is
/// dropped) and is kept for [`MergeStream::finish`].
pub(crate) struct MergeStream<'a, K, V, SC> {
    sources: Vec<MergeSource<'a, K, V, SC>>,
    heap: BinaryHeap<HeapGroup<K, V>>,
    error: Option<EngineError>,
    /// Groups yielded so far.
    groups: usize,
}

impl<'a, K: Ord, V, SC: SpillCodec<K, V>> MergeStream<'a, K, V, SC> {
    /// A stream over `sources`, listed in map-task order.
    pub(crate) fn new(sources: Vec<MergeSource<'a, K, V, SC>>) -> Self {
        let mut stream = MergeStream {
            heap: BinaryHeap::with_capacity(sources.len()),
            sources,
            error: None,
            groups: 0,
        };
        for task in 0..stream.sources.len() {
            stream.refill(task);
        }
        stream
    }

    /// Pushes source `task`'s next group onto the heap, or records its error.
    fn refill(&mut self, task: usize) {
        match self.sources[task].next_group() {
            Ok(Some((key, values))) => self.heap.push(HeapGroup { key, task, values }),
            Ok(None) => {}
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    /// The smallest `(key, task)` group, its source refilled; `None` once
    /// the sources are exhausted or one of them failed.
    fn pop(&mut self) -> Option<HeapGroup<K, V>> {
        let top = self.heap.pop()?;
        self.refill(top.task);
        self.error.is_none().then_some(top)
    }

    /// The number of groups the stream yielded, or the error that ended it.
    pub(crate) fn finish(self) -> Result<usize, EngineError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.groups),
        }
    }
}

impl<K: Ord, V, SC: SpillCodec<K, V>> Iterator for MergeStream<'_, K, V, SC> {
    type Item = (K, Vec<V>);

    fn next(&mut self) -> Option<(K, Vec<V>)> {
        let HeapGroup { key, mut values, .. } = self.pop()?;
        while self.heap.peek().is_some_and(|next| next.key == key) {
            values.append(&mut self.pop()?.values);
        }
        self.groups += 1;
        Some((key, values))
    }
}

/// Deterministically flips one byte of the first run file (in sorted path
/// order) under `dir` — the `spill_corrupt` fault payload. The flipped byte
/// is chosen by `splitmix64(seed ^ file_len)`, so the same spec corrupts
/// the same byte on every run. Returns the corrupted path, or `None` when
/// no run file exists.
pub(crate) fn corrupt_first_run(dir: &Path, seed: u64) -> Option<PathBuf> {
    let mut runs: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "snrr"))
        .collect();
    runs.sort();
    let path = runs.into_iter().next()?;
    let mut bytes = std::fs::read(&path).ok()?;
    if bytes.is_empty() {
        return None;
    }
    let i = (snr_faults::splitmix64(seed ^ bytes.len() as u64) % bytes.len() as u64) as usize;
    bytes[i] ^= 0x5A;
    std::fs::write(&path, bytes).ok()?;
    Some(path)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Toy codec for `(u32, Vec<u64>)` groups: key, count, then values.
    pub(crate) struct U32U64Codec;

    /// [`U32U64Codec`]'s encoding with the count limited to `max_len`.
    fn encode_capped(
        key: u32,
        values: &[u64],
        out: &mut Vec<u8>,
        max_len: usize,
    ) -> Result<(), String> {
        let mut w = Writer::with_max_len(out, max_len);
        w.u32(key);
        w.len_prefix(values.len()).map_err(|e| e.to_string())?;
        w.u64s(values);
        Ok(())
    }

    impl SpillCodec<u32, u64> for U32U64Codec {
        /// A `u32` key plus a `u64` value.
        fn bytes_of(&self, _key: &u32, _value: &u64) -> usize {
            12
        }

        fn encode_group(&self, key: &u32, values: &[u64], out: &mut Vec<u8>) -> Result<(), String> {
            encode_capped(*key, values, out, wire::MAX_LEN)
        }

        fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<u64>), String> {
            if bytes.len() < 8 {
                return Err(format!("group too short: {} bytes", bytes.len()));
            }
            let key = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
            if bytes.len() != 8 + 8 * count {
                return Err(format!(
                    "group length mismatch: {} bytes for {count} values",
                    bytes.len()
                ));
            }
            let values = bytes[8..]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Ok((key, values))
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snr-spill-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_groups() -> Vec<(u32, Vec<u64>)> {
        vec![(1, vec![10, 11]), (5, vec![50]), (9, vec![90, 91, 92])]
    }

    #[test]
    fn run_file_round_trips_bit_identically() {
        let dir = scratch("roundtrip");
        let path = dir.join("run-t0-p0.snrr");
        let groups = sample_groups();
        let faults = Mutex::new(FaultRegistry::empty());
        let bytes = write_run(&path, 1, 0, 0, &groups, &U32U64Codec, &faults).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let mut reader = RunReader::open(&path, &U32U64Codec).unwrap();
        let mut back = Vec::new();
        while let Some(g) = reader.next_group().unwrap() {
            back.push(g);
        }
        assert_eq!(back, groups);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_run_file_round_trips() {
        let dir = scratch("empty");
        let path = dir.join("run-t0-p1.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        write_run(&path, 2, 0, 1, &Vec::<(u32, Vec<u64>)>::new(), &U32U64Codec, &faults).unwrap();
        let mut reader = RunReader::open(&path, &U32U64Codec).unwrap();
        assert!(reader.next_group().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_a_clean_error_never_a_panic() {
        let dir = scratch("flip");
        let path = dir.join("run-t0-p0.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        write_run(&path, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 0x5A;
            std::fs::write(&path, &bytes).unwrap();
            let outcome = RunReader::open(&path, &U32U64Codec).and_then(|mut r| {
                while r.next_group()?.is_some() {}
                Ok(())
            });
            let err = outcome.expect_err("flipping a byte must be detected");
            let EngineError::Spill(why) = err;
            assert!(
                why.contains("checksum") || why.contains("magic"),
                "byte {i}: unexpected error {why:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_is_a_clean_error_never_a_panic() {
        let dir = scratch("truncate");
        let path = dir.join("run-t0-p0.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        write_run(&path, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let outcome = RunReader::open(&path, &U32U64Codec).and_then(|mut r| {
                while r.next_group()?.is_some() {}
                Ok(())
            });
            assert!(outcome.is_err(), "truncating at {cut} must be detected");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_runs_are_clean_errors() {
        let dir = scratch("version");
        let path = dir.join("run-t0-p0.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        write_run(&path, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        let mut old = std::fs::read(&path).unwrap();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body = old.len() - RUN_FOOTER_LEN;
        let mut resealed = old.clone();
        let sum = snr_store::checksum64(&resealed[..body]);
        resealed[body..].copy_from_slice(&sum.to_le_bytes());
        // The reader checks the footer before the header, so a version-1
        // file fails its checksum; re-sealed, it fails the version check.
        for (bytes, expect) in [(&old, "checksum"), (&resealed, "unsupported version 1")] {
            std::fs::write(&path, bytes).unwrap();
            let Err(EngineError::Spill(why)) = RunReader::open(&path, &U32U64Codec) else {
                panic!("a version-1 run must be rejected");
            };
            assert!(why.contains(expect), "expected {expect:?}, got {why:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_io_fault_fires_once_and_leaves_a_partial_file() {
        let dir = scratch("fault");
        let path = dir.join("run-t0-p0.snrr");
        let faults = Mutex::new(FaultRegistry::parse("spill_io@round3").unwrap());
        // Wrong round: the write succeeds.
        write_run(&path, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        // Matching round: clean error, partial (header-only) file on disk.
        let err = write_run(&path, 3, 0, 0, &sample_groups(), &U32U64Codec, &faults)
            .expect_err("fault must fire");
        assert!(matches!(err, EngineError::Spill(ref why) if why.contains("spill_io")));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RUN_HEADER_LEN as u64);
        // Fire-once: the retry goes through.
        write_run(&path, 3, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// [`U32U64Codec`], except that encoding a group of more than `cap`
    /// values fails, as a length over its prefix's limit does.
    struct CappedEncode {
        cap: usize,
    }

    impl SpillCodec<u32, u64> for CappedEncode {
        fn bytes_of(&self, key: &u32, value: &u64) -> usize {
            U32U64Codec.bytes_of(key, value)
        }

        fn encode_group(&self, key: &u32, values: &[u64], out: &mut Vec<u8>) -> Result<(), String> {
            encode_capped(*key, values, out, self.cap)
        }

        fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<u64>), String> {
            U32U64Codec.decode_group(bytes)
        }
    }

    #[test]
    fn an_encode_error_is_a_spill_error_naming_the_run_file() {
        let dir = scratch("encode-error");
        let path = dir.join("run-t0-p0.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        // The last sample group holds 3 values.
        let err = write_run(&path, 1, 0, 0, &sample_groups(), &CappedEncode { cap: 2 }, &faults)
            .expect_err("a group over the cap must fail the run");
        let EngineError::Spill(why) = err;
        assert!(why.contains(&path.display().to_string()), "{why}");
        assert!(why.contains("length 3 exceeds the 2"), "{why}");
        // At the cap the same groups write the bytes of the uncapped codec.
        write_run(&path, 1, 0, 0, &sample_groups(), &CappedEncode { cap: 3 }, &faults).unwrap();
        let capped = std::fs::read(&path).unwrap();
        write_run(&path, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        assert_eq!(capped, std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_matches_concatenate_then_stable_sort() {
        let dir = scratch("merge");
        let faults = Mutex::new(FaultRegistry::empty());
        // Three "tasks" with overlapping keys; task 1 spills to disk.
        let t0 = vec![(1u32, vec![100u64]), (4, vec![400])];
        let t1 = vec![(1u32, vec![101u64]), (2, vec![200]), (4, vec![401])];
        let t2 = vec![(2u32, vec![201u64])];
        let path = dir.join("run-t1-p0.snrr");
        write_run(&path, 1, 1, 0, &t1, &U32U64Codec, &faults).unwrap();
        let sources = vec![
            MergeSource::Mem(t0.into_iter()),
            MergeSource::Disk(RunReader::open(&path, &U32U64Codec).unwrap()),
            MergeSource::Mem(t2.into_iter()),
        ];
        let mut stream = MergeStream::new(sources);
        let merged: Vec<_> = stream.by_ref().collect();
        assert_eq!(stream.finish(), Ok(3));
        assert_eq!(
            merged,
            vec![(1, vec![100, 101]), (2, vec![200, 201]), (4, vec![400, 401]),],
            "values must concatenate in task order within each key"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A partition whose buckets are mixed in-memory and on-disk sources
    // streams ascending keys, each key's values in task order.
    proptest::proptest! {
        #[test]
        fn mixed_sources_stream_ascending_keys_with_values_in_task_order(
            tasks in proptest::collection::vec(
                (proptest::collection::vec((0u32..24, 1usize..4), 0..12), 0u8..2),
                0..7,
            ),
        ) {
            let dir = scratch("prop-merge");
            let faults = Mutex::new(FaultRegistry::empty());
            // Task `t`'s values for key `k` are `t * 1000 + k * 10 + i`.
            // Each task's keys ascend without repeats (the first draw of a
            // key wins), as a grouped bucket's do.
            let buckets: Vec<Vec<(u32, Vec<u64>)>> = tasks
                .iter()
                .enumerate()
                .map(|(t, (keys, _))| {
                    let keys: std::collections::BTreeMap<u32, usize> =
                        keys.iter().rev().copied().collect();
                    keys.into_iter()
                        .map(|(k, n)| {
                            let base = t as u64 * 1000 + u64::from(k) * 10;
                            (k, (base..base + n as u64).collect())
                        })
                        .collect()
                })
                .collect();
            let mut expected: Vec<(u32, Vec<u64>)> = Vec::new();
            let mut flat: Vec<(u32, Vec<u64>)> = buckets.iter().flatten().cloned().collect();
            flat.sort_by_key(|(k, _)| *k);
            for (k, mut vs) in flat {
                match expected.last_mut() {
                    Some((lk, lvs)) if *lk == k => lvs.append(&mut vs),
                    _ => expected.push((k, vs)),
                }
            }
            let mut sources = Vec::new();
            for (t, (bucket, (_, on_disk))) in buckets.into_iter().zip(&tasks).enumerate() {
                if *on_disk == 1 {
                    let path = dir.join(format!("run-t{t}-p0.snrr"));
                    write_run(&path, 1, t as u32, 0, &bucket, &U32U64Codec, &faults).unwrap();
                    sources.push(MergeSource::Disk(RunReader::open(&path, &U32U64Codec).unwrap()));
                } else {
                    sources.push(MergeSource::Mem(bucket.into_iter()));
                }
            }
            let mut stream = MergeStream::new(sources);
            let got: Vec<_> = stream.by_ref().collect();
            proptest::prop_assert_eq!(stream.finish(), Ok(expected.len()));
            proptest::prop_assert_eq!(got, expected);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_first_run_picks_deterministically_and_breaks_the_checksum() {
        let dir = scratch("corrupt");
        let faults = Mutex::new(FaultRegistry::empty());
        let a = dir.join("run-t0-p0.snrr");
        let b = dir.join("run-t1-p0.snrr");
        write_run(&a, 1, 0, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        write_run(&b, 1, 1, 0, &sample_groups(), &U32U64Codec, &faults).unwrap();
        let pristine_b = std::fs::read(&b).unwrap();
        let hit = corrupt_first_run(&dir, 7).expect("a run file exists");
        assert_eq!(hit, a, "sorted path order picks run-t0 first");
        assert_eq!(std::fs::read(&b).unwrap(), pristine_b, "only one file is touched");
        assert!(RunReader::open(&a, &U32U64Codec).is_err(), "corruption must be detected");
        assert!(RunReader::open(&b, &U32U64Codec).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact bytes of one run file: header, two groups, footer.
    #[test]
    fn run_file_bytes_are_pinned() {
        let dir = scratch("golden");
        let path = dir.join("run-t1-p2.snrr");
        let faults = Mutex::new(FaultRegistry::empty());
        let groups = vec![(3u32, vec![7u64]), (5, vec![1, 258])];
        write_run(&path, 4, 1, 2, &groups, &U32U64Codec, &faults).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "534e524d020004000000010000000200000002000000000000001000000003000000010000000700000000000000180000000500000002000000010000000000000002010000000000001df3d70ad8de9adc");
        let mut reader = RunReader::open(&path, &U32U64Codec).unwrap();
        let mut back = Vec::new();
        while let Some(g) = reader.next_group().unwrap() {
            back.push(g);
        }
        assert_eq!(back, groups);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
