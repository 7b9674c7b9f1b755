//! Key partitioning for the shuffle phase.
//!
//! Keys are routed to reducers by a pure function of the key, so a run with
//! the same inputs and the same worker count always produces the same
//! grouping — determinism matters because the experiment harness compares
//! MapReduce results against the sequential backend bit-for-bit.

/// Range partitioner for dense `u32` keys: maps `key` in `0..bound` to one
/// of `partitions` contiguous, equally-wide key intervals.
///
/// Consecutive keys land in the same partition, so a reduce partition owns
/// a sorted key *range* — this is what lets [`crate::Engine::run`] callers
/// fold whole candidate rows into a per-partition sink and still
/// concatenate per-partition outputs into globally key-ordered results.
/// Keys at or above `bound` (and everything when `bound` is 0) clamp into
/// the last partition rather than panicking.
pub fn range_partition(key: u32, bound: usize, partitions: usize) -> usize {
    debug_assert!(partitions > 0, "partition count must be positive");
    if bound == 0 {
        return partitions - 1;
    }
    (((key as u64).min(bound as u64 - 1) * partitions as u64) / bound as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_partition_is_monotone_in_range_and_covers_all_partitions() {
        let (bound, parts) = (1_000usize, 7);
        let mut seen = vec![false; parts];
        let mut prev = 0usize;
        for k in 0..bound as u32 {
            let p = range_partition(k, bound, parts);
            assert!(p < parts, "key {k} out of range: {p}");
            assert!(p >= prev, "partition must not decrease with the key");
            seen[p] = true;
            prev = p;
        }
        assert!(seen.iter().all(|&s| s), "every partition owns some keys: {seen:?}");
    }

    #[test]
    fn range_partition_clamps_out_of_bound_keys() {
        assert_eq!(range_partition(999, 100, 4), 3);
        assert_eq!(range_partition(5, 0, 4), 3);
        assert_eq!(range_partition(0, 1, 1), 0);
    }
}
