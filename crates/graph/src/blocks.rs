//! Delta-encoded neighbor-block primitives shared by [`crate::CompactCsr`]
//! and external block storage (the on-disk segments of `snr-store`).
//!
//! A sorted neighbor list is split into blocks of [`BLOCK_SIZE`] entries.
//! The first element of every block is stored verbatim in a skip array
//! (`skip_firsts`) together with the byte offset of the block's gap stream
//! (`skip_bytes`); the remaining elements are LEB128 varint gaps from their
//! predecessor. [`BlockNeighbors`] decodes any such layout borrowed as plain
//! slices, which is what lets a memory-mapped segment reuse the exact
//! decoding path the in-memory representation uses — zero copies,
//! identical results.

use crate::node::NodeId;

/// Number of adjacency entries per delta-encoded block. Each block costs one
/// 8-byte skip entry, so larger blocks trade the skip arrays' footprint for
/// longer gap runs; 64 keeps the skip overhead at 1/8 byte per entry.
pub const BLOCK_SIZE: usize = 64;

/// Appends `v` to `out` as an LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from `data` at `*pos`, advancing `*pos`.
///
/// # Panics
/// Panics if the varint runs past the end of `data`; callers are expected
/// to validate the stream (e.g. via a checksum) before decoding.
#[inline]
pub fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Bounds-checked variant of [`read_varint`] for validating untrusted
/// streams: returns the decoded value and the position after it, or `None`
/// if the varint is truncated or does not fit in a `u32`.
#[inline]
pub fn try_read_varint(data: &[u8], mut pos: usize) -> Option<(u32, usize)> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(pos)?;
        pos += 1;
        if shift > 28 || (shift == 28 && byte & 0x70 != 0) {
            return None; // would overflow u32
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some((v, pos));
        }
        shift += 7;
    }
}

/// Iterator over one node's delta-encoded neighbor list.
///
/// Borrows the *global* skip arrays and gap stream and starts at the node's
/// first block: each block's first element comes from the skip array, the
/// rest from the varint gaps that follow it.
pub struct BlockNeighbors<'a> {
    skip_firsts: &'a [u32],
    skip_bytes: &'a [u32],
    data: &'a [u8],
    /// Global index of the next block to enter.
    block: usize,
    /// Entries yielded so far; exhausted when `pos == total`.
    pos: usize,
    /// Degree of the node.
    total: usize,
    /// Next byte to decode within `data`.
    byte_pos: usize,
    /// Last yielded value, the base of the next gap.
    cur: u32,
}

impl<'a> BlockNeighbors<'a> {
    /// An iterator over the list of `total` entries stored in the global
    /// blocks starting at `block_lo` of the given skip arrays and gap stream.
    #[inline]
    pub fn new(
        skip_firsts: &'a [u32],
        skip_bytes: &'a [u32],
        data: &'a [u8],
        block_lo: usize,
        total: usize,
    ) -> Self {
        BlockNeighbors {
            skip_firsts,
            skip_bytes,
            data,
            block: block_lo,
            pos: 0,
            total,
            byte_pos: 0,
            cur: 0,
        }
    }
}

impl Iterator for BlockNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.pos == self.total {
            return None;
        }
        if self.pos.is_multiple_of(BLOCK_SIZE) {
            self.cur = self.skip_firsts[self.block];
            self.byte_pos = self.skip_bytes[self.block] as usize;
            self.block += 1;
        } else {
            self.cur += read_varint(self.data, &mut self.byte_pos);
        }
        self.pos += 1;
        Some(NodeId(self.cur))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.pos;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decodes_hand_built_blocks() {
        // One list of 3 entries in a single block: [10, 17, 25].
        let skip_firsts = [10u32];
        let skip_bytes = [0u32];
        let mut data = Vec::new();
        write_varint(&mut data, 7);
        write_varint(&mut data, 8);
        let decoded: Vec<NodeId> =
            BlockNeighbors::new(&skip_firsts, &skip_bytes, &data, 0, 3).collect();
        assert_eq!(decoded, vec![NodeId(10), NodeId(17), NodeId(25)]);
    }
}
