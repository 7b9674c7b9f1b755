//! Phase-boundary checkpoints: the coordinator's merged link state and
//! per-phase counters, persisted in the run's scratch directory so
//! [`crate::ShardDriver::resume`] can restart from the last complete phase.
//!
//! The on-disk format is framed by [`snr_store::wire`], like every other
//! file in the workspace: a magic (`SNRC`), a format version, fixed-width
//! little-endian fields, and a trailing 8-byte [`snr_store::Checksum64`]
//! over everything before it (a version-1 checkpoint, which had an older
//! footer checksum, is rejected). Every structural defect — bad magic, bad
//! version, truncation, inflated counts, checksum mismatch, trailing bytes —
//! is a [`DriverError::Checkpoint`], never a panic and never an oversized
//! allocation. Writes go to a temp file that is atomically renamed over
//! the previous checkpoint, so a torn write leaves the prior phase's
//! checkpoint intact (resume just redoes one more phase).

use crate::driver::DriverStore;
use crate::error::DriverError;
use snr_core::PhaseStats;
use snr_store::segment::VERSION as STORE_VERSION;
use snr_store::wire::{self, Format, Reader, WireError, Writer};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// File name of the checkpoint inside the scratch directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snrc";

/// Checkpoint magic bytes ("SNR Checkpoint").
pub const MAGIC: [u8; 4] = *b"SNRC";

/// Checkpoint format version.
pub const VERSION: u16 = 2;

const FORMAT: Format = Format { magic: MAGIC, version: VERSION, name: "checkpoint" };

fn corrupt(e: WireError) -> DriverError {
    DriverError::Checkpoint(format!("checkpoint: {e}"))
}

/// Everything needed to restart a run at its next phase boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// How the interrupted run's workers opened the scratch segments.
    pub store: DriverStore,
    /// Copy-1 node-space size.
    pub n1: u64,
    /// Copy-2 node-space size.
    pub n2: u64,
    /// `MatchingConfig::threshold` of the interrupted run.
    pub threshold: u32,
    /// `MatchingConfig::iterations` of the interrupted run.
    pub iterations: u32,
    /// `MatchingConfig::degree_bucketing` of the interrupted run.
    pub degree_bucketing: bool,
    /// `MatchingConfig::min_bucket` of the interrupted run.
    pub min_bucket: u32,
    /// The original seed list, verbatim (collisions included), so resume
    /// reconstructs the exact `Linking` — `seed_count` and all.
    pub seeds: Vec<(u32, u32)>,
    /// Every link accumulated through the last complete phase.
    pub links: Vec<(u32, u32)>,
    /// Counters of every completed phase, in execution order.
    pub phases: Vec<CheckpointPhase>,
}

/// One completed phase's counters, as persisted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPhase {
    /// Outer iteration index, starting at 1.
    pub iteration: u32,
    /// Degree-bucket exponent (0 when bucketing is disabled).
    pub bucket: u32,
    /// Candidate pairs scored in the phase.
    pub scored_pairs: u64,
    /// Links added by the phase.
    pub new_links: u64,
    /// Total links after the phase.
    pub total_links: u64,
    /// Phase wall-clock, microseconds.
    pub duration_us: u64,
}

impl From<&PhaseStats> for CheckpointPhase {
    fn from(p: &PhaseStats) -> Self {
        CheckpointPhase {
            iteration: p.iteration,
            bucket: p.bucket,
            scored_pairs: p.scored_pairs as u64,
            new_links: p.new_links as u64,
            total_links: p.total_links as u64,
            duration_us: p.duration.as_micros() as u64,
        }
    }
}

impl CheckpointPhase {
    /// Back-converts to the in-memory stats record.
    pub fn to_stats(&self) -> PhaseStats {
        PhaseStats {
            iteration: self.iteration,
            bucket: self.bucket,
            scored_pairs: self.scored_pairs as usize,
            new_links: self.new_links as usize,
            total_links: self.total_links as usize,
            duration: Duration::from_micros(self.duration_us),
        }
    }
}

impl Checkpoint {
    /// Serializes the checkpoint: body then its [`snr_store::Checksum64`].
    ///
    /// # Panics
    ///
    /// If a list holds more entries than a `u32` count can carry.
    /// [`Checkpoint::write_file`] checks this and fails with
    /// [`DriverError::Checkpoint`] instead.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_capped(wire::MAX_LEN).expect("checkpoint lists fit their u32 counts")
    }

    /// Serializes the checkpoint, rejecting any count above `max_len`.
    fn encode_capped(&self, max_len: usize) -> Result<Vec<u8>, DriverError> {
        let mut out = Vec::new();
        self.encode_fields(&mut Writer::with_max_len(&mut out, max_len)).map_err(corrupt)?;
        wire::seal(&mut out);
        Ok(out)
    }

    fn encode_fields(&self, w: &mut Writer<'_>) -> Result<(), WireError> {
        FORMAT.put_header(w);
        w.u16(STORE_VERSION);
        let (tag, shards) = match self.store {
            DriverStore::Compact => (0, 0),
            DriverStore::Mmap => (1, 0),
            DriverStore::Sharded(n) => (2, n),
        };
        w.u8(tag);
        w.len_prefix(shards)?;
        w.u64(self.n1);
        w.u64(self.n2);
        w.u32(self.threshold);
        w.u32(self.iterations);
        w.u8(self.degree_bucketing as u8);
        w.u32(self.min_bucket);
        w.pairs(&self.seeds)?;
        w.pairs(&self.links)?;
        w.len_prefix(self.phases.len())?;
        for p in &self.phases {
            w.u32(p.iteration);
            w.u32(p.bucket);
            for v in [p.scored_pairs, p.new_links, p.total_links, p.duration_us] {
                w.u64(v);
            }
        }
        Ok(())
    }

    /// Parses and validates a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DriverError> {
        let body = wire::open_sealed(bytes).map_err(corrupt)?;
        // Every field as stored; the tags and cross-field invariants are
        // checked below.
        let read = |r: &mut Reader<'_>| {
            FORMAT.check_header(r)?;
            let seg_version = r.u16()?;
            let store = (r.u8()?, r.u32()?);
            let sizes = (r.u64()?, r.u64()?);
            let params = (r.u32()?, r.u32()?, r.bool()?, r.u32()?);
            let (seeds, links) = (r.pairs()?, r.pairs()?);
            let phase_count = r.count(40)?;
            let phases = (0..phase_count)
                .map(|_| {
                    Ok(CheckpointPhase {
                        iteration: r.u32()?,
                        bucket: r.u32()?,
                        scored_pairs: r.u64()?,
                        new_links: r.u64()?,
                        total_links: r.u64()?,
                        duration_us: r.u64()?,
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            r.finish()?;
            Ok((seg_version, store, sizes, params, seeds, links, phases))
        };
        let (seg_version, store, (n1, n2), params, seeds, links, phases) =
            read(&mut Reader::new(body)).map_err(corrupt)?;
        let (threshold, iterations, degree_bucketing, min_bucket) = params;
        if seg_version != STORE_VERSION {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint references segment format v{seg_version}, this build reads v{STORE_VERSION}"
            )));
        }
        let store = match store {
            (0, _) => DriverStore::Compact,
            (1, _) => DriverStore::Mmap,
            (2, n) => DriverStore::Sharded(n as usize),
            (t, _) => return Err(DriverError::Checkpoint(format!("unknown store tag {t}"))),
        };
        let cp = Checkpoint {
            store,
            n1,
            n2,
            threshold,
            iterations,
            degree_bucketing,
            min_bucket,
            seeds,
            links,
            phases,
        };
        if let Some(last) = cp.phases.last() {
            if last.total_links != cp.links.len() as u64 {
                return Err(DriverError::Checkpoint(format!(
                    "last phase reports {} total links but {} are stored",
                    last.total_links,
                    cp.links.len()
                )));
            }
        }
        Ok(cp)
    }

    /// Writes the checkpoint atomically: temp file in the same directory,
    /// then rename over any previous checkpoint.
    pub fn write_file(&self, path: &Path) -> Result<(), DriverError> {
        let tmp = path.with_extension("snrc.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode_capped(wire::MAX_LEN)?)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Checkpoint, DriverError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DriverError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }

    /// The persisted phase counters as in-memory stats records.
    pub fn phase_stats(&self) -> Vec<PhaseStats> {
        self.phases.iter().map(CheckpointPhase::to_stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_store::checksum64;

    fn sample() -> Checkpoint {
        Checkpoint {
            store: DriverStore::Sharded(4),
            n1: 1000,
            n2: 999,
            threshold: 2,
            iterations: 2,
            degree_bucketing: true,
            min_bucket: 1,
            seeds: vec![(0, 0), (5, 7), (5, 7)],
            links: vec![(0, 0), (5, 7), (9, 9), (10, 11)],
            phases: vec![
                CheckpointPhase {
                    iteration: 1,
                    bucket: 5,
                    scored_pairs: 1234,
                    new_links: 1,
                    total_links: 3,
                    duration_us: 1500,
                },
                CheckpointPhase {
                    iteration: 1,
                    bucket: 4,
                    scored_pairs: 777,
                    new_links: 1,
                    total_links: 4,
                    duration_us: 900,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let cp = sample();
        let bytes = cp.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), cp);
        for store in [DriverStore::Compact, DriverStore::Mmap] {
            let mut cp = sample();
            cp.store = store;
            assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
        }
    }

    #[test]
    fn every_single_byte_corruption_is_a_clean_error() {
        let cp = sample();
        let bytes = cp.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match Checkpoint::decode(&bad) {
                Err(DriverError::Checkpoint(_)) => {}
                Err(e) => panic!("byte {i}: wrong error type {e}"),
                // A flip in the checksum footer combined with... no: any
                // single flip breaks either the body (checksum mismatch) or
                // the footer (mismatch the other way). Decode must fail.
                Ok(_) => panic!("byte {i}: corruption went undetected"),
            }
        }
    }

    #[test]
    fn truncations_and_garbage_are_clean_errors() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                matches!(Checkpoint::decode(&bytes[..len]), Err(DriverError::Checkpoint(_))),
                "truncation to {len} bytes must fail cleanly"
            );
        }
        assert!(Checkpoint::decode(&[0x55; 64]).is_err());
        assert!(Checkpoint::decode(&[]).is_err());
    }

    #[test]
    fn version_1_checkpoints_are_clean_errors() {
        let bytes = sample().encode();
        let mut old = bytes.clone();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        // As written by a version-1 build, the footer no longer matches:
        // the checksum check fires first.
        match Checkpoint::decode(&old) {
            Err(DriverError::Checkpoint(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("version-1 checkpoint decoded as {other:?}"),
        }
        // Re-sealed with a valid footer, the version check fires instead.
        let body = old.len() - 8;
        let sum = checksum64(&old[..body]);
        old[body..].copy_from_slice(&sum.to_le_bytes());
        match Checkpoint::decode(&old) {
            Err(DriverError::Checkpoint(why)) => {
                assert!(why.contains("unsupported checkpoint version 1"), "{why}")
            }
            other => panic!("version-1 checkpoint decoded as {other:?}"),
        }
    }

    #[test]
    fn inconsistent_totals_are_rejected() {
        let mut cp = sample();
        cp.phases.last_mut().unwrap().total_links = 99;
        let bytes = cp.encode();
        assert!(matches!(Checkpoint::decode(&bytes), Err(DriverError::Checkpoint(_))));
    }

    #[test]
    fn file_roundtrip_is_atomic_over_a_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("snrc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let mut cp = sample();
        cp.write_file(&path).unwrap();
        cp.phases.pop();
        cp.links.pop();
        cp.write_file(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_long_lists_are_clean_errors() {
        let cp = sample();
        let err = cp.encode_capped(3).unwrap_err();
        assert!(
            matches!(err, DriverError::Checkpoint(ref why) if why.contains("length 4")),
            "{err}"
        );
        assert_eq!(cp.encode_capped(4).unwrap(), cp.encode());
    }

    /// The exact bytes of one checkpoint file, footer included.
    #[test]
    fn file_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("snrc-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        sample().write_file(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "534e5243020002000204000000e803000000000000e7030000000000000200000002000000010100000003000000000000000000000005000000070000000500000007000000040000000000000000000000050000000700000009000000090000000a0000000b000000020000000100000005000000d20400000000000001000000000000000300000000000000dc0500000000000001000000040000000903000000000000010000000000000004000000000000008403000000000000e9c7227493ffde6a");
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), sample());
    }
}
