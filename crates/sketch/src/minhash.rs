//! MinHash signatures over `u64` item sets.
//!
//! A [`MinHasher`] holds `k` hash functions
//! `h_i(x) = (mix64(x) ^ seed_i) · φ` (seeds drawn from one SplitMix64
//! stream, `φ` the odd golden-ratio constant). Each `h_i` is a bijection on
//! `u64` — a permutation of the item universe, which is what MinHash
//! requires — and the expensive avalanche of `x` is computed once per item
//! instead of once per hash function, leaving two cheap ops on the `k`-wide
//! inner loop. The signature of a set `S` is `sig[i] = min_{x ∈ S} h_i(x)`
//! — for two sets, `P[sig_A[i] == sig_B[i]]` equals their Jaccard
//! similarity, so the fraction of agreeing components estimates Jaccard
//! with standard error `√(J(1−J)/k)`.
//!
//! The fold is branch-free: every item sets every slot to
//! `min(slot, h_i(x))` (a conditional move), rather than testing and
//! storing. The `t`-th item of a set lowers a slot with probability about
//! `1/t`, so a compare-and-branch there mispredicts on no steady pattern.
//! Slots are folded eight at a time over the whole item set, so their
//! running minima stay in registers instead of being loaded and stored
//! once per item.

use rand::hash::{mix64, SplitMix64};
use rand::RngCore;
use rayon::prelude::*;

/// Item count per worker chunk when building signatures in parallel.
const PARALLEL_CHUNK_MIN: usize = 256;

/// Signature slots folded together: their running minima and seeds stay
/// in registers across a whole item set.
const SLOT_BLOCK: usize = 8;

/// A family of `k` MinHash functions derived deterministically from a seed.
#[derive(Clone, Debug)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

impl MinHasher {
    /// A hasher with `k` hash functions derived from `seed`. `k` must be at
    /// least 1.
    pub fn new(k: usize, seed: u64) -> MinHasher {
        assert!(k >= 1, "MinHasher needs at least one hash function");
        let mut stream = SplitMix64::new(seed);
        MinHasher { seeds: (0..k).map(|_| stream.next_u64()).collect() }
    }

    /// Number of hash functions (the signature length).
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Writes the signature of the item set in `items` into `out` (length
    /// exactly [`MinHasher::k`]), using `items` as scratch: each item is
    /// replaced by its [`mix64`] avalanche. Returns `false`, leaving `out`
    /// untouched, if `items` is empty: the MinHash of the empty set is
    /// undefined, and callers must skip such nodes rather than sketch them.
    fn sign(&self, items: &mut [u64], out: &mut [u64]) -> bool {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        assert_eq!(out.len(), self.k(), "signature buffer length must equal k");
        if items.is_empty() {
            return false;
        }
        for x in items.iter_mut() {
            *x = mix64(*x);
        }
        for (slots, seeds) in out.chunks_mut(SLOT_BLOCK).zip(self.seeds.chunks(SLOT_BLOCK)) {
            let mut block = [0u64; SLOT_BLOCK];
            block[..seeds.len()].copy_from_slice(seeds);
            let mut mins = [u64::MAX; SLOT_BLOCK];
            for &m in items.iter() {
                for (min, &seed) in mins.iter_mut().zip(&block) {
                    *min = (*min).min((m ^ seed).wrapping_mul(PHI));
                }
            }
            slots.copy_from_slice(&mins[..slots.len()]);
        }
        true
    }

    /// The signature of `items`, or `None` for an empty stream.
    pub fn signature(&self, items: impl IntoIterator<Item = u64>) -> Option<Vec<u64>> {
        let mut items: Vec<u64> = items.into_iter().collect();
        let mut out = vec![0u64; self.k()];
        self.sign(&mut items, &mut out).then_some(out)
    }
}

/// Estimates the Jaccard similarity of the two sets behind `a` and `b`:
/// the fraction of agreeing signature components. Both signatures must come
/// from the same [`MinHasher`] and have equal length.
pub fn estimate_jaccard(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signatures must have equal length");
    assert!(!a.is_empty(), "cannot estimate Jaccard from empty signatures");
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

/// A column-packed collection of signatures: `ids[i]`'s signature is the
/// `i`-th stride-`k` slice of `sigs`. Nodes whose item set was empty are
/// not stored (they cannot collide with anything).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureSet {
    k: usize,
    ids: Vec<u32>,
    sigs: Vec<u64>,
}

impl SignatureSet {
    /// Builds signatures for every id in `ids` whose item set is non-empty.
    /// `items_of` yields the item set of one id into the scratch buffer it
    /// is handed (cleared between calls).
    pub fn build<F>(hasher: &MinHasher, ids: &[u32], items_of: F) -> SignatureSet
    where
        F: Fn(u32, &mut Vec<u64>),
    {
        let mut out = SignatureSet { k: hasher.k(), ids: Vec::new(), sigs: Vec::new() };
        let mut items = Vec::new();
        let mut sig = vec![0u64; hasher.k()];
        for &id in ids {
            items.clear();
            items_of(id, &mut items);
            if hasher.sign(&mut items, &mut sig) {
                out.ids.push(id);
                out.sigs.extend_from_slice(&sig);
            }
        }
        out
    }

    /// Parallel sibling of [`SignatureSet::build`], bit-identical to it:
    /// the id list is split into contiguous chunks, each worker sketches
    /// its chunk, and chunk results are spliced back in input order (the
    /// hash family is fixed, so per-id signatures do not depend on which
    /// worker computed them).
    pub fn build_parallel<F>(hasher: &MinHasher, ids: &[u32], items_of: F) -> SignatureSet
    where
        F: Fn(u32, &mut Vec<u64>) + Sync,
    {
        if ids.len() < PARALLEL_CHUNK_MIN {
            return SignatureSet::build(hasher, ids, items_of);
        }
        let chunk_size =
            ids.len().div_ceil(rayon::current_num_threads().max(1)).max(PARALLEL_CHUNK_MIN);
        let chunks: Vec<&[u32]> = ids.chunks(chunk_size).collect();
        let parts: Vec<SignatureSet> =
            chunks.par_iter().map(|chunk| SignatureSet::build(hasher, chunk, &items_of)).collect();
        let mut out = SignatureSet {
            k: hasher.k(),
            ids: Vec::with_capacity(parts.iter().map(|p| p.ids.len()).sum()),
            sigs: Vec::with_capacity(parts.iter().map(|p| p.sigs.len()).sum()),
        };
        for part in parts {
            out.ids.extend(part.ids);
            out.sigs.extend(part.sigs);
        }
        out
    }

    /// Signature length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stored (non-empty) signatures.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no signatures are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids with stored signatures, in input order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The `i`-th stored signature.
    pub fn signature_at(&self, i: usize) -> &[u64] {
        &self.sigs[i * self.k..(i + 1) * self.k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_items_produce_no_signature() {
        let hasher = MinHasher::new(8, 1);
        assert_eq!(hasher.signature(std::iter::empty()), None);
        let set = SignatureSet::build(&hasher, &[0, 1, 2], |id, items| {
            if id == 1 {
                items.push(99);
            }
        });
        assert_eq!(set.ids(), &[1]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let hasher = MinHasher::new(16, 7);
        let a = hasher.signature([3u64, 1, 4, 15]).unwrap();
        let b = hasher.signature([15u64, 4, 3, 1]).unwrap();
        assert_eq!(a, b, "signatures are order-independent");
        assert_eq!(estimate_jaccard(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_sets_mostly_disagree() {
        let hasher = MinHasher::new(64, 11);
        let a = hasher.signature((0..50).map(|i| i * 2)).unwrap();
        let b = hasher.signature((0..50).map(|i| i * 2 + 1)).unwrap();
        assert!(estimate_jaccard(&a, &b) < 0.2, "disjoint sets should rarely agree");
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let hasher = MinHasher::new(12, 3);
        let ids: Vec<u32> = (0..2_000).collect();
        let items = |id: u32, out: &mut Vec<u64>| {
            for j in 0..(id % 17) {
                out.push(u64::from(id / 13 + j));
            }
        };
        let seq = SignatureSet::build(&hasher, &ids, items);
        let par = SignatureSet::build_parallel(&hasher, &ids, items);
        assert_eq!(seq, par);
    }

    /// `MinHasher::new(32, 7)` signatures of fixed item sets, recorded
    /// with the original compare-and-store fold. A change to the hash
    /// family or the fold that moves a bit fails here.
    #[test]
    fn signatures_are_pinned() {
        #[rustfmt::skip]
        const SMALL: [u64; 32] = [
            0x0C12_1C82_C13A_20A1, 0x7953_A629_CCC9_0E4E, 0x9B1C_BF6F_2FEA_75DA, 0x525A_0353_D018_ADD7,
            0x1160_2149_7350_1F90, 0x7747_D058_5769_B6B7, 0x423A_D98B_B741_AE8F, 0x3FE6_4125_9683_2B84,
            0x096C_DEB2_4C34_5647, 0x2C60_A260_E02F_D99F, 0x3582_BB63_F841_B426, 0x80F8_E4F6_49D9_C90C,
            0x3EB7_3E41_8CFE_B314, 0x5A50_F686_FAD9_5742, 0x77FE_AD4B_121E_AACE, 0x8114_F9BF_8F33_265A,
            0x3752_E4C9_5313_E1CB, 0x3928_A08B_DCDB_6C51, 0x17E2_A341_2EB0_6A29, 0x1105_6CEF_F033_0B5A,
            0x6A7C_DC5E_364F_C189, 0x25B4_4A31_F13C_B301, 0x16A9_587C_81D7_54E3, 0x44E8_51AB_1BA8_5D3B,
            0x3C42_5FB7_47C7_E479, 0x49BB_7ECD_C075_030D, 0x649F_E614_80E8_E9F0, 0x78C9_2287_EB10_CC42,
            0x7883_FF51_E89D_D203, 0x0FE5_4B79_F085_DB71, 0x61ED_5B5F_A3A7_3528, 0x6D13_4B11_0288_22FD,
        ];
        #[rustfmt::skip]
        const RANGE: [u64; 32] = [
            0x024D_5F82_9863_77FF, 0x2D63_648D_4AF6_3F04, 0x0653_6F1B_011E_6D79, 0x38A0_1166_6AEF_13B3,
            0x020C_C415_16C9_AEE6, 0x2889_EBD2_04DF_EF6D, 0x3F9F_36C0_E27F_C58A, 0x073A_7B2D_7ED2_6032,
            0x096C_DEB2_4C34_5647, 0x2C60_A260_E02F_D99F, 0x3582_BB63_F841_B426, 0x6EF0_8333_42FC_9098,
            0x09A8_AF4C_DA63_4162, 0x2B93_FD1B_A267_82B8, 0x0022_D97D_4AF6_3526, 0x141D_F9FF_A1F5_C55C,
            0x02CF_1483_BEEB_A5D8, 0x0607_3553_6474_82DB, 0x0CE6_B5C5_A1B8_A121, 0x0778_301A_2622_805C,
            0x0AA3_1576_5AF1_1258, 0x1A96_2ADD_51B8_0065, 0x1151_418B_59E2_BF3D, 0x3737_0CBC_C015_68EB,
            0x00FB_3DFA_866C_D7F4, 0x0092_7047_4708_C8E9, 0x38FB_49F2_9EC6_968E, 0x299B_F331_622F_7403,
            0x1465_4809_0D1F_44CF, 0x0FE5_4B79_F085_DB71, 0x09EE_DF73_78F7_7874, 0x19D9_E339_634B_CA30,
        ];
        #[rustfmt::skip]
        const SINGLE: [u64; 32] = [
            0xAD1A_E2A5_3226_D719, 0x35C0_0CC5_EA31_5D16, 0x847D_BBAF_37E6_0EA0, 0x10A7_BF14_0412_BA1D,
            0x8F5F_97CE_8F2F_5758, 0x1D32_0AEE_CA34_C42F, 0xE785_8851_F794_5F64, 0x83BB_200E_FB23_0A0C,
            0xD184_01D8_0E85_DE7F, 0x07A8_E02D_EFA8_6327, 0x8A34_F6E1_46A9_E87D, 0x1522_7575_909B_8226,
            0x871F_3523_A36B_81DC, 0x69A0_4B60_B065_337A, 0x9F65_4E3F_5DB4_1F14, 0xA4BB_9763_27C2_98E2,
            0xC097_7BF3_CAC8_7791, 0x5D5F_C450_C67C_8EC9, 0xF214_DD4E_C3AA_2DE3, 0x69BA_AA2A_6632_E9E2,
            0x5B9B_B7DE_415D_DF11, 0xABA7_F203_D1C4_6B9B, 0xFC4F_E77E_97F0_38AB, 0x531D_AB5B_7B59_FC21,
            0x8A79_3572_5242_D17A, 0x14E3_C0BB_8556_5FA7, 0xD65C_A18C_9608_0878, 0xBE07_9310_9116_6041,
            0x6C03_0BAF_AEB8_F549, 0xCA5F_5B11_ECB1_432B, 0x00A2_2852_76C2_4B62, 0xA8D5_0797_3FBB_79A6,
        ];
        let hasher = MinHasher::new(32, 7);
        assert_eq!(hasher.signature([1u64, 2, 3]).unwrap(), SMALL);
        assert_eq!(hasher.signature(0u64..10).unwrap(), RANGE);
        assert_eq!(hasher.signature([42u64]).unwrap(), SINGLE);
    }
}
