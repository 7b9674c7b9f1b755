//! Phase-boundary checkpoints: the coordinator's merged link state and
//! per-phase counters, persisted in the run's scratch directory so
//! [`crate::ShardDriver::resume`] can restart from the last complete phase.
//!
//! The on-disk format is framed by [`snr_store::wire`], like every other
//! file in the workspace: a magic (`SNRC`), a format version, fixed-width
//! little-endian fields, and a trailing 8-byte [`snr_store::Checksum64`]
//! over everything before it. Older versions are rejected: version 1 had
//! an older footer checksum, and version 2 carried a store tag from when
//! workers could open the segments more than one way. Every structural defect — bad magic, bad
//! version, truncation, inflated counts, checksum mismatch, trailing bytes —
//! is a [`DriverError::Checkpoint`], never a panic and never an oversized
//! allocation. Writes go to a temp file that is atomically renamed over
//! the previous checkpoint, so a torn write leaves the prior phase's
//! checkpoint intact (resume just redoes one more phase).

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
pub const VERSION: u16 = 3;

const FORMAT: Format = Format { magic: MAGIC, version: VERSION, name: "checkpoint" };

fn corrupt(e: WireError) -> DriverError {
    DriverError::Checkpoint(format!("checkpoint: {e}"))
}

/// Everything needed to restart a run at its next phase boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
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
    /// Counters of every completed phase, in execution order. Each is
    /// stored as two `u32`s and four `u64`s, its duration in whole
    /// microseconds.
    pub phases: Vec<PhaseStats>,
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
            for v in [p.scored_pairs, p.new_links, p.total_links] {
                w.u64(v as u64);
            }
            w.u64(p.duration.as_micros() as u64);
        }
        Ok(())
    }

    /// Parses and validates a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DriverError> {
        let body = wire::open_sealed(bytes).map_err(corrupt)?;
        // Every field as stored; the segment version and cross-field
        // invariants are checked below.
        let read = |r: &mut Reader<'_>| {
            FORMAT.check_header(r)?;
            let seg_version = r.u16()?;
            let sizes = (r.u64()?, r.u64()?);
            let params = (r.u32()?, r.u32()?, r.bool()?, r.u32()?);
            let (seeds, links) = (r.pairs()?, r.pairs()?);
            let phase_count = r.count(40)?;
            let phases = (0..phase_count)
                .map(|_| {
                    Ok(PhaseStats {
                        iteration: r.u32()?,
                        bucket: r.u32()?,
                        scored_pairs: r.u64()? as usize,
                        new_links: r.u64()? as usize,
                        total_links: r.u64()? as usize,
                        duration: Duration::from_micros(r.u64()?),
                    })
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            r.finish()?;
            Ok((seg_version, sizes, params, seeds, links, phases))
        };
        let (seg_version, (n1, n2), params, seeds, links, phases) =
            read(&mut Reader::new(body)).map_err(corrupt)?;
        let (threshold, iterations, degree_bucketing, min_bucket) = params;
        if seg_version != STORE_VERSION {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint references segment format v{seg_version}, this build reads v{STORE_VERSION}"
            )));
        }
        let cp = Checkpoint {
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
            if last.total_links != cp.links.len() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_store::checksum64;

    fn sample() -> Checkpoint {
        Checkpoint {
            n1: 1000,
            n2: 999,
            threshold: 2,
            iterations: 2,
            degree_bucketing: true,
            min_bucket: 1,
            seeds: vec![(0, 0), (5, 7), (5, 7)],
            links: vec![(0, 0), (5, 7), (9, 9), (10, 11)],
            phases: vec![
                PhaseStats {
                    iteration: 1,
                    bucket: 5,
                    scored_pairs: 1234,
                    new_links: 1,
                    total_links: 3,
                    duration: Duration::from_micros(1500),
                },
                PhaseStats {
                    iteration: 1,
                    bucket: 4,
                    scored_pairs: 777,
                    new_links: 1,
                    total_links: 4,
                    duration: Duration::from_micros(900),
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let cp = sample();
        let bytes = cp.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), cp);
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

    /// A checkpoint stamped with an older `version` is a clean error,
    /// whether its footer is left stale or re-sealed.
    fn assert_old_version_is_rejected(version: u16) {
        let bytes = sample().encode();
        let mut old = bytes.clone();
        old[4..6].copy_from_slice(&version.to_le_bytes());
        // With the footer left alone it no longer matches: the checksum
        // check fires first.
        match Checkpoint::decode(&old) {
            Err(DriverError::Checkpoint(why)) => assert!(why.contains("checksum"), "{why}"),
            other => panic!("version-{version} checkpoint decoded as {other:?}"),
        }
        // Re-sealed with a valid footer, the version check fires instead.
        let body = old.len() - 8;
        let sum = checksum64(&old[..body]);
        old[body..].copy_from_slice(&sum.to_le_bytes());
        match Checkpoint::decode(&old) {
            Err(DriverError::Checkpoint(why)) => {
                let expected = format!("unsupported checkpoint version {version}");
                assert!(why.contains(&expected), "{why}")
            }
            other => panic!("version-{version} checkpoint decoded as {other:?}"),
        }
    }

    #[test]
    fn version_1_checkpoints_are_clean_errors() {
        assert_old_version_is_rejected(1);
    }

    #[test]
    fn version_2_checkpoints_are_clean_errors() {
        assert_old_version_is_rejected(2);
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
        assert_eq!(hex, "534e524303000200e803000000000000e7030000000000000200000002000000010100000003000000000000000000000005000000070000000500000007000000040000000000000000000000050000000700000009000000090000000a0000000b000000020000000100000005000000d20400000000000001000000000000000300000000000000dc05000000000000010000000400000009030000000000000100000000000000040000000000000084030000000000005895bb34538db12a");
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), sample());
    }
}
