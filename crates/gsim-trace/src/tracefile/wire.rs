//! Shared wire-format primitives for trace files: varints, zigzag
//! deltas, names, and the one op encoder and decoder.
//!
//! Two small abstractions keep each primitive single:
//!
//! * [`Sink`] — a byte destination. Implemented by `Vec<u8>` (file
//!   writing) and [`FnvSink`] (semantic hashing), so the exact bytes a
//!   warp serialises to are also the bytes it hashes to.
//! * [`ByteGet`] — a byte source for [`get_varint`]. Implemented by
//!   [`SliceReader`] (the fields of a checksummed frame payload held in
//!   memory) and the streaming `ByteSource` in the reader module (a
//!   frame's length prefix, read off the `io::Read` before its payload
//!   can be).

use crate::op::{MemAccess, MemSpace, Op};

use super::{TraceLimits, TraceReadError};

/// File magic.
pub(super) const MAGIC: &[u8; 4] = b"GSTR";
/// The one format version read and written: checksummed frames.
pub(super) const VERSION: u8 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64-bit hash.
pub(super) fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot FNV-1a 64 (used for frame checksums).
pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// A byte destination for the encoders.
pub(crate) trait Sink {
    /// Appends one byte.
    fn put(&mut self, b: u8);
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, b: u8) {
        self.push(b);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// A [`Sink`] that hashes instead of storing — encoding into it computes
/// the FNV-1a 64 of the encoded bytes without materialising them.
pub(crate) struct FnvSink(pub u64);

impl FnvSink {
    pub(crate) fn new() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Sink for FnvSink {
    fn put(&mut self, b: u8) {
        self.0 = fnv1a_update(self.0, &[b]);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.0 = fnv1a_update(self.0, s);
    }
}

/// A byte source for [`get_varint`].
pub(super) trait ByteGet {
    /// Reads one byte; clean error (never a panic) on exhaustion.
    fn get_u8(&mut self) -> Result<u8, TraceReadError>;
}

/// [`ByteGet`] over an in-memory slice (a frame payload).
pub(super) struct SliceReader<'a> {
    pub(super) buf: &'a [u8],
    pub(super) pos: usize,
}

impl<'a> SliceReader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(super) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `len` bytes, borrowed from the payload.
    fn take(&mut self, len: u64) -> Result<&'a [u8], TraceReadError> {
        if (self.remaining() as u64) < len {
            return Err(TraceReadError::corrupt("truncated payload"));
        }
        let out = &self.buf[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        Ok(out)
    }
}

impl ByteGet for SliceReader<'_> {
    fn get_u8(&mut self) -> Result<u8, TraceReadError> {
        let b = self
            .buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| TraceReadError::corrupt("truncated payload"))?;
        self.pos += 1;
        Ok(b)
    }
}

pub(super) fn put_varint<S: Sink>(out: &mut S, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put(byte);
            return;
        }
        out.put(byte | 0x80);
    }
}

pub(super) fn get_varint<G: ByteGet>(src: &mut G) -> Result<u64, TraceReadError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = src.get_u8()?;
        if shift >= 64 {
            return Err(TraceReadError::corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(super) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(super) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(super) fn put_string<S: Sink>(out: &mut S, s: &str) {
    put_varint(out, s.len() as u64);
    out.put_slice(s.as_bytes());
}

pub(super) fn get_string(
    src: &mut SliceReader<'_>,
    limits: &TraceLimits,
) -> Result<String, TraceReadError> {
    let len = get_varint(src)?;
    if len > limits.max_name_bytes {
        return Err(TraceReadError::corrupt(format!(
            "name length {len} exceeds limit {}",
            limits.max_name_bytes
        )));
    }
    String::from_utf8(src.take(len)?.to_vec())
        .map_err(|_| TraceReadError::corrupt("name is not UTF-8"))
}

/// Serialises one warp's ops: varint op-count, then tagged ops. The
/// address-delta baseline resets to zero at the start of every warp, so a
/// warp's encoding is independent of its neighbours (what lets a writer
/// chunk and a reader hash warps individually).
pub(super) fn encode_ops<S: Sink>(out: &mut S, ops: &[Op]) {
    put_varint(out, ops.len() as u64);
    let mut last_addr: i64 = 0;
    for op in ops {
        match op {
            Op::Compute { n } => {
                out.put(0);
                put_varint(out, u64::from(*n));
            }
            Op::Load(m) | Op::Store(m) | Op::Atomic(m) => {
                let kind: u8 = match op {
                    Op::Load(_) => 1,
                    Op::Store(_) => 2,
                    _ => 3,
                };
                let bypass = if m.space == MemSpace::BypassL1 { 4 } else { 0 };
                out.put(kind | bypass);
                out.put(m.txns);
                put_varint(out, u64::from(m.txn_stride_lines));
                put_varint(out, zigzag(m.line_addr as i64 - last_addr));
                last_addr = m.line_addr as i64;
            }
        }
    }
}

/// Highest line address whose 128 B line still has a 64-bit byte address.
/// The timing model's tag stores pack flags beside the line address and
/// rely on this bound.
const MAX_LINE_ADDR: i64 = (1 << 57) - 1;

/// Decodes one warp's ops. Every length is validated before use: the
/// op-count is capped by `limits.max_ops_per_warp` and the preallocation
/// is capped independently, so a hostile count cannot trigger a huge
/// allocation.
pub(super) fn decode_ops(
    src: &mut SliceReader<'_>,
    limits: &TraceLimits,
) -> Result<Vec<Op>, TraceReadError> {
    let n = get_varint(src)?;
    if n > limits.max_ops_per_warp {
        return Err(TraceReadError::TooLarge(format!(
            "warp declares {n} ops, limit is {}",
            limits.max_ops_per_warp
        )));
    }
    let mut ops = Vec::with_capacity((n as usize).min(1 << 16));
    let mut last_addr: i64 = 0;
    for _ in 0..n {
        let tag = src.get_u8()?;
        match tag & 0x03 {
            0 => {
                let batch = get_varint(src)?;
                let batch = u16::try_from(batch)
                    .map_err(|_| TraceReadError::corrupt("compute batch exceeds u16"))?;
                if batch == 0 {
                    // The engine issues a batch's first instruction on the
                    // spot; a batch of none has no cycle to occupy.
                    return Err(TraceReadError::corrupt("empty compute batch"));
                }
                ops.push(Op::Compute { n: batch });
            }
            kind => {
                let txns = src.get_u8()?;
                let stride = get_varint(src)?;
                let stride = u32::try_from(stride)
                    .map_err(|_| TraceReadError::corrupt("transaction stride exceeds u32"))?;
                let delta = unzigzag(get_varint(src)?);
                let addr = last_addr
                    .checked_add(delta)
                    .ok_or_else(|| TraceReadError::corrupt("address delta overflow"))?;
                if addr < 0 {
                    return Err(TraceReadError::corrupt("negative line address"));
                }
                let span = i64::from(txns) * i64::from(stride);
                if addr > MAX_LINE_ADDR - span {
                    return Err(TraceReadError::corrupt(
                        "line address beyond the 64-bit byte address space",
                    ));
                }
                last_addr = addr;
                let access = MemAccess {
                    line_addr: addr as u64,
                    txns,
                    txn_stride_lines: stride,
                    space: if tag & 4 != 0 {
                        MemSpace::BypassL1
                    } else {
                        MemSpace::Global
                    },
                };
                ops.push(match kind {
                    1 => Op::Load(access),
                    2 => Op::Store(access),
                    _ => Op::Atomic(access),
                });
            }
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_and_zigzag_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), 1 << 50] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut r = SliceReader::new(&b);
            assert_eq!(get_varint(&mut r).unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Same reference vectors as gsim-serve's cache hasher.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_sink_matches_buffered_encoding() {
        let ops = vec![
            Op::Compute { n: 3 },
            Op::Load(MemAccess::coalesced(100)),
            Op::Store(MemAccess::coalesced(40)),
        ];
        let mut buf = Vec::new();
        encode_ops(&mut buf, &ops);
        let mut sink = FnvSink::new();
        encode_ops(&mut sink, &ops);
        assert_eq!(sink.0, fnv1a(&buf));
    }

    #[test]
    fn line_address_beyond_the_byte_address_space_is_rejected() {
        for (line_addr, ok) in [((1u64 << 57) - 1, true), (1 << 57, false), (1 << 62, false)] {
            let mut b = Vec::new();
            encode_ops(&mut b, &[Op::Load(MemAccess::coalesced(line_addr))]);
            let decoded = decode_ops(&mut SliceReader::new(&b), &TraceLimits::default());
            match decoded {
                Ok(ops) => assert!(ok && ops.len() == 1, "{line_addr:#x} accepted"),
                Err(e) => assert!(!ok && matches!(e, TraceReadError::Corrupt(_)), "{e}"),
            }
        }
    }

    #[test]
    fn empty_compute_batch_is_rejected() {
        let mut b = Vec::new();
        encode_ops(&mut b, &[Op::Compute { n: 0 }]);
        let err = decode_ops(&mut SliceReader::new(&b), &TraceLimits::default()).unwrap_err();
        assert!(matches!(err, TraceReadError::Corrupt(_)), "{err}");
    }

    #[test]
    fn hostile_op_count_is_rejected_without_allocation() {
        let mut b = Vec::new();
        put_varint(&mut b, u64::MAX); // absurd op count
        let mut r = SliceReader::new(&b);
        let err = decode_ops(&mut r, &TraceLimits::default()).unwrap_err();
        assert!(matches!(err, TraceReadError::TooLarge(_)));
    }
}
