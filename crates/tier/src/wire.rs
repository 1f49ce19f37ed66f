//! Little-endian wire primitives shared by the spill tier's chunk
//! records and `pade-cache`'s persisted warm-start image.
//!
//! One set of encoders means the two formats cannot drift: the persist
//! image is a header plus a stream of [`ChunkRecord`](crate::ChunkRecord)s
//! written by [`write_chunk`](crate::write_chunk), followed by session
//! planes, and every plane goes through exactly
//! [`write_planes`]/[`read_planes`] — **packed plane words**, so a reader
//! re-adopts decomposed state by parsing `⌈dims/64⌉` words per plane
//! instead of re-running bit-plane decomposition, and the round trip is
//! `==`-identical by construction.

use std::io::{self, Read, Write};

use pade_quant::BitPlaneMatrix;

/// Writes a `u32` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u64` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u128` little-endian.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u128<W: Write>(w: &mut W, v: u128) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads a little-endian `u128`.
///
/// # Errors
///
/// Propagates reader errors (including a short read).
pub fn read_u128<R: Read>(r: &mut R) -> io::Result<u128> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf)?;
    Ok(u128::from_le_bytes(buf))
}

/// Writes a length-prefixed token-id sequence.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_ids<W: Write>(w: &mut W, ids: &[u32]) -> io::Result<()> {
    write_u64(w, ids.len() as u64)?;
    for &id in ids {
        write_u32(w, id)?;
    }
    Ok(())
}

/// Reads a length-prefixed token-id sequence. The count is bounded
/// (16 Mi ids) so a corrupt length cannot drive a huge allocation.
///
/// # Errors
///
/// Returns `InvalidData` on an absurd count and propagates reader
/// errors.
pub fn read_ids<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
    let n = read_u64(r)?;
    if n > 1 << 24 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("absurd id count {n}")));
    }
    let mut ids = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ids.push(read_u32(r)?);
    }
    Ok(ids)
}

/// Serializes a plane matrix as packed words: token count, then for
/// every token, every plane MSB-first, the plane's `⌈dims/64⌉` raw
/// little-endian words — the matrix's own [`BitPlaneMatrix::words`]
/// layout. Shape (`dims`, `bits`) is the reader's context, not repeated
/// per record.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_planes<W: Write>(w: &mut W, planes: &BitPlaneMatrix) -> io::Result<()> {
    write_u64(w, planes.tokens() as u64)?;
    for &word in planes.words() {
        write_u64(w, word)?;
    }
    Ok(())
}

/// Parses a [`write_planes`] stream back into a matrix of the given
/// shape — pure word parsing, no decomposition. The token count is
/// bounded (16 Mi) and the preallocation capped, so a corrupt length or
/// shape cannot drive a huge allocation.
///
/// # Errors
///
/// Returns `InvalidData` when the words violate the plane invariants
/// (tail garbage, bad shape) and propagates reader errors.
pub fn read_planes<R: Read>(r: &mut R, dims: usize, bits: u32) -> io::Result<BitPlaneMatrix> {
    let n_tokens = read_u64(r)?;
    if n_tokens > 1 << 24 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("absurd token count {n_tokens}"),
        ));
    }
    let n_words = (bits as usize)
        .checked_mul(dims.div_ceil(64))
        .and_then(|token_words| token_words.checked_mul(n_tokens as usize))
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("absurd plane shape {dims}x{bits}b"))
        })?;
    let mut words = Vec::with_capacity(n_words.min(1 << 16));
    for _ in 0..n_words {
        words.push(read_u64(r)?);
    }
    BitPlaneMatrix::from_plane_words(words, dims, bits)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_u128(&mut buf, u128::MAX / 3).unwrap();
        write_ids(&mut buf, &[1, 2, 0xFFFF_FFFF]).unwrap();
        let r = &mut buf.as_slice();
        assert_eq!(read_u32(r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(r).unwrap(), u64::MAX - 1);
        assert_eq!(read_u128(r).unwrap(), u128::MAX / 3);
        assert_eq!(read_ids(r).unwrap(), vec![1, 2, 0xFFFF_FFFF]);
        assert!(r.is_empty());
    }

    #[test]
    fn absurd_counts_are_rejected_not_allocated() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(read_ids(&mut buf.as_slice()).is_err());
        assert!(read_planes(&mut buf.as_slice(), 64, 8).is_err());
    }

    #[test]
    fn planes_round_trip_without_decomposition() {
        let rows: Vec<i8> = (0..5 * 70).map(|i| ((i * 37) % 256) as u8 as i8).collect();
        let planes = BitPlaneMatrix::from_rows(&rows, 70, 8).unwrap();
        let mut buf = Vec::new();
        write_planes(&mut buf, &planes).unwrap();
        let back = read_planes(&mut buf.as_slice(), 70, 8).unwrap();
        assert_eq!(back, planes);
        // Short stream: truncating anywhere fails cleanly.
        assert!(read_planes(&mut buf[..buf.len() - 1].as_ref(), 70, 8).is_err());
    }

    /// Two 70-dim 8-bit tokens: 2 words per plane, the second holding 6
    /// dims and 58 padding bits.
    fn golden_matrix() -> BitPlaneMatrix {
        let rows: Vec<i8> = (0..2 * 70).map(|i| ((i * 37 + 11) % 256) as u8 as i8).collect();
        BitPlaneMatrix::from_rows(&rows, 70, 8).unwrap()
    }

    /// The `write_planes` stream of [`golden_matrix`] as little-endian
    /// words: the token count, then token 0's planes MSB first (two words
    /// each), then token 1's.
    #[rustfmt::skip]
    const GOLDEN_WORDS: [u64; 33] = [
        2,
        0x38f1_e3c7_8f1e_3870, 0x1c, 0x26cd_9b26_4c99_366c, 0x13,
        0x95ab_52b5_6a54_ad4a, 0x0a, 0x38e1_c71e_38e1_c71e, 0x1e,
        0x26d9_26d9_26d9_26d9, 0x19, 0xb4b4_b4b4_b4b4_b4b4, 0x34,
        0x9999_9999_9999_9999, 0x19, 0x5555_5555_5555_5555, 0x15,
        0x3c78_f1e3_870e_1c38, 0x1e, 0xb364_c993_66cd_9b26, 0x19,
        0x2a56_ad4a_d5a9_52b5, 0x35, 0x78e3_871c_78e3_871c, 0x1c,
        0x649b_649b_649b_649b, 0x1b, 0xd2d2_d2d2_d2d2_d2d2, 0x12,
        0x6666_6666_6666_6666, 0x26, 0x5555_5555_5555_5555, 0x15,
    ];

    #[test]
    fn planes_wire_bytes_are_pinned() {
        // A round trip cannot see a layout change made the same way in
        // the writer and the reader; these bytes can.
        let golden: Vec<u8> = GOLDEN_WORDS.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut buf = Vec::new();
        write_planes(&mut buf, &golden_matrix()).unwrap();
        assert_eq!(buf, golden);
        assert_eq!(read_planes(&mut golden.as_slice(), 70, 8).unwrap(), golden_matrix());
    }

    #[test]
    fn a_set_padding_bit_in_any_plane_is_rejected() {
        // Word 2 + 2p is the ragged last word of plane p (counting both
        // tokens' planes in stream order); bit 6 is its first padding bit.
        for p in 0..16 {
            let mut words = GOLDEN_WORDS;
            words[2 + 2 * p] |= 1 << 6;
            let stream: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert!(read_planes(&mut stream.as_slice(), 70, 8).is_err(), "plane {p}");
        }
    }
}
