//! Trace serialisation.
//!
//! The writer is generic over [`WorkloadModel`], so synthetic workloads
//! and already-decoded [`TracedWorkload`](super::TracedWorkload)s record
//! alike. Output is streamed: the writer holds at most one chunk in
//! memory.

use std::io::{self, Write};

use crate::model::WorkloadModel;
use crate::op::Op;
use crate::pattern::WarpStream;

use super::wire::{self, MAGIC, VERSION};
use super::{FRAME_CHUNK, FRAME_END, FRAME_HEADER};

/// Soft chunk-payload size the writer flushes at. A chunk can exceed
/// this by at most one warp's encoding, and readers default to a 16 MiB
/// hard cap, so anything this writer produces round-trips.
pub(super) const CHUNK_TARGET_BYTES: usize = 64 * 1024;

/// Writes one framed record: kind, varint payload length, payload, and an
/// FNV-1a 64 checksum of the payload (little-endian). Returns bytes
/// written.
fn write_frame<W: Write>(out: &mut W, kind: u8, payload: &[u8]) -> io::Result<u64> {
    let mut head = Vec::with_capacity(12);
    head.push(kind);
    wire::put_varint(&mut head, payload.len() as u64);
    out.write_all(&head)?;
    out.write_all(payload)?;
    out.write_all(&wire::fnv1a(payload).to_le_bytes())?;
    Ok(head.len() as u64 + payload.len() as u64 + 8)
}

fn flush_chunk<W: Write>(
    out: &mut W,
    kernel: usize,
    first_warp: u64,
    n_warps: u64,
    warp_bytes: &[u8],
) -> io::Result<u64> {
    let mut payload = Vec::with_capacity(warp_bytes.len() + 16);
    wire::put_varint(&mut payload, kernel as u64);
    wire::put_varint(&mut payload, first_warp);
    wire::put_varint(&mut payload, n_warps);
    payload.extend_from_slice(warp_bytes);
    write_frame(out, FRAME_CHUNK, &payload)
}

/// Collects one warp's full op stream into `ops` (cleared first).
fn collect_warp<M: WorkloadModel>(wl: &M, kernel: usize, cta: u32, warp: u32, ops: &mut Vec<Op>) {
    ops.clear();
    let mut stream = wl.warp_stream(kernel, cta, warp);
    while let Some(op) = stream.next_op() {
        ops.push(op);
    }
}

/// Serialises every warp stream of `wl` as a framed trace file.
///
/// Returns the number of bytes written.
///
/// # Errors
///
/// Returns any I/O error from `out`. A `&mut Vec<u8>` or file can be
/// passed (generic writers are taken by value per the standard-library
/// convention; pass `&mut w` to keep ownership).
pub fn write_trace<M: WorkloadModel, W: Write>(wl: &M, mut out: W) -> io::Result<u64> {
    let mut bytes = 5u64;
    out.write_all(MAGIC)?;
    out.write_all(&[VERSION])?;

    let mut header = Vec::new();
    wire::put_string(&mut header, wl.name());
    wire::put_varint(&mut header, wl.n_kernels() as u64);
    for k in 0..wl.n_kernels() {
        let (n_ctas, threads_per_cta) = wl.grid(k);
        wire::put_string(&mut header, &wl.kernel_name(k));
        wire::put_varint(&mut header, u64::from(n_ctas));
        wire::put_varint(&mut header, u64::from(threads_per_cta));
    }
    bytes += write_frame(&mut out, FRAME_HEADER, &header)?;

    let (mut total_warps, mut total_ops, mut total_instrs) = (0u64, 0u64, 0u64);
    let mut ops = Vec::new();
    let mut warp_bytes = Vec::new();
    for k in 0..wl.n_kernels() {
        let (n_ctas, _) = wl.grid(k);
        let wpc = wl.warps_per_cta(k);
        let mut first_warp = 0u64;
        let mut n_warps = 0u64;
        warp_bytes.clear();
        for cta in 0..n_ctas {
            for warp in 0..wpc {
                collect_warp(wl, k, cta, warp, &mut ops);
                wire::encode_ops(&mut warp_bytes, &ops);
                n_warps += 1;
                total_warps += 1;
                total_ops += ops.len() as u64;
                total_instrs += ops.iter().map(Op::warp_instrs).sum::<u64>();
                if warp_bytes.len() >= CHUNK_TARGET_BYTES {
                    bytes += flush_chunk(&mut out, k, first_warp, n_warps, &warp_bytes)?;
                    first_warp += n_warps;
                    n_warps = 0;
                    warp_bytes.clear();
                }
            }
        }
        if n_warps > 0 {
            bytes += flush_chunk(&mut out, k, first_warp, n_warps, &warp_bytes)?;
        }
    }

    let mut end = Vec::new();
    wire::put_varint(&mut end, total_warps);
    wire::put_varint(&mut end, total_ops);
    wire::put_varint(&mut end, total_instrs);
    bytes += write_frame(&mut out, FRAME_END, &end)?;
    Ok(bytes)
}
