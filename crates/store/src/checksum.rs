//! The one streaming checksum behind every on-disk frame in the workspace:
//! graph segments, driver checkpoints and MapReduce spill runs all end in
//! the 8-byte [`Checksum64`] of every byte before the footer.
//!
//! The input is read as little-endian 64-bit words in 32-byte blocks, one
//! word per lane across four independent lanes, so the four multiply
//! chains overlap in the pipeline instead of serializing on one dependent
//! multiply per byte. Each lane step is
//!
//! ```text
//! lane = rotl((lane ^ word) · K_i, 31)
//! ```
//!
//! A final partial block is zero-padded. [`Checksum64::finish`] folds the
//! four lanes in order, xors in the byte length, and runs a bijective
//! avalanche finalizer.
//!
//! Every step above is a bijection both in the running state (for a fixed
//! input word) and in the input word (for a fixed state). Two consequences
//! hold by construction rather than by probability:
//!
//! * two inputs of equal length that differ in one byte (in fact in any
//!   bytes inside one 64-bit word) always have different sums;
//! * two inputs whose padded blocks are equal but whose lengths differ
//!   always have different sums (e.g. appending a zero byte to an input
//!   whose length is not a multiple of 32).
//!
//! Other changes are detected with the usual 2⁻⁶⁴ collision odds. The sum
//! does not depend on how the input is split across [`Checksum64::update`]
//! calls.

/// Bytes per block: one 64-bit word for each of the four lanes.
const BLOCK: usize = 32;

/// Initial lane values (arbitrary distinct constants, so an all-zero input
/// does not leave the lanes at zero).
const SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// Odd per-lane multipliers (odd, so multiplication is a bijection mod 2⁶⁴).
const MULTIPLIERS: [u64; 4] =
    [0x9e37_79b1_85eb_ca87, 0xc2b2_ae3d_27d4_eb4f, 0x1656_67b1_9e37_79f9, 0x85eb_ca77_c2b2_ae63];

#[inline(always)]
fn step(lane: u64, word: u64, k: u64) -> u64 {
    (lane ^ word).wrapping_mul(k).rotate_left(31)
}

#[inline(always)]
fn word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
}

/// Bijective 64-bit avalanche (the MurmurHash3 `fmix64` finalizer).
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Streaming four-lane word-wise checksum. See the module docs for the
/// construction and its guarantees.
#[derive(Debug)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Bytes of a block not yet complete, `pending[..pending_len]`.
    pending: [u8; BLOCK],
    pending_len: usize,
    total: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64::new()
    }
}

impl Checksum64 {
    /// A checksum over the empty input.
    pub fn new() -> Checksum64 {
        Checksum64 { lanes: SEEDS, pending: [0; BLOCK], pending_len: 0, total: 0 }
    }

    /// Folds `bytes` into the sum.
    #[inline]
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.blocks(&block);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.blocks(&bytes[..whole]);
        let tail = &bytes[whole..];
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Runs the lane steps over `bytes`, a whole number of blocks.
    #[inline]
    fn blocks(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in bytes.chunks_exact(BLOCK) {
            a = step(a, word(block, 0), MULTIPLIERS[0]);
            b = step(b, word(block, 1), MULTIPLIERS[1]);
            c = step(c, word(block, 2), MULTIPLIERS[2]);
            d = step(d, word(block, 3), MULTIPLIERS[3]);
        }
        self.lanes = [a, b, c, d];
    }

    /// The sum of everything passed to [`Checksum64::update`] so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            let mut block = [0u8; BLOCK];
            block[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = step(*lane, word(&block, i), MULTIPLIERS[i]);
            }
        }
        let mut h = 0u64;
        for (i, lane) in lanes.into_iter().enumerate() {
            h = step(h, fmix64(lane), MULTIPLIERS[i]);
        }
        fmix64(h ^ self.total)
    }
}

/// The [`Checksum64`] of one whole buffer.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::new();
    sum.update(bytes);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64).map(|i| (fmix64(i ^ (salt << 32)) >> 24) as u8).collect()
    }

    #[test]
    fn every_single_byte_flip_changes_the_sum_at_every_length() {
        for len in 0..=100 {
            let bytes = data(len, 1);
            let base = checksum64(&bytes);
            for pos in 0..len {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[pos] ^= flip;
                    assert_ne!(checksum64(&bad), base, "len {len}, byte {pos}, flip {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn appending_a_zero_or_dropping_the_last_byte_changes_the_sum() {
        for salt in 0..4 {
            for len in 0..=100 {
                let bytes = data(len, salt);
                let base = checksum64(&bytes);
                let mut longer = bytes.clone();
                longer.push(0);
                assert_ne!(checksum64(&longer), base, "len {len}: appended zero");
                if len > 0 {
                    assert_ne!(checksum64(&bytes[..len - 1]), base, "len {len}: dropped last");
                }
            }
        }
    }

    #[test]
    fn all_zero_inputs_of_different_lengths_differ() {
        let sums: std::collections::HashSet<u64> =
            (0..=256).map(|len| checksum64(&vec![0u8; len])).collect();
        assert_eq!(sums.len(), 257);
    }

    proptest::proptest! {
        #[test]
        fn any_split_equals_the_one_shot_sum(
            bytes in proptest::collection::vec(0u16..256, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut sum = Checksum64::new();
            let mut at = 0;
            for cut in cuts {
                sum.update(&bytes[at..cut]);
                at = cut;
            }
            sum.update(&bytes[at..]);
            proptest::prop_assert_eq!(sum.finish(), checksum64(&bytes));
        }
    }
}
