//! Binary trace files: record a workload's instruction streams once,
//! replay them anywhere.
//!
//! Accel-Sim, the simulator this workspace stands in for, is
//! *trace-driven*: workloads are captured as instruction traces and the
//! timing model replays them. This module provides the same workflow:
//! [`write_trace`] serialises every warp stream of any [`WorkloadModel`]
//! into a compact binary format, [`TraceReader`] streams a recorded file
//! back warp by warp with bounded memory, and [`TracedWorkload`] replays
//! a fully decoded file through the simulator via [`WorkloadModel`].
//! Traces are deterministic and self-contained, so they can be shared
//! without the generator.
//!
//! # Format
//!
//! There is one format. All integers are LEB128 varints unless noted.
//! After a 5-byte preamble (magic `"GSTR"`, version byte `2`) the file is
//! a sequence of frames:
//!
//! ```text
//! kind          u8 (1 = header, 2 = warp chunk, 3 = end)
//! payload_len   varint
//! payload       payload_len bytes
//! checksum      u64 LE, FNV-1a 64 of the payload
//! ```
//!
//! * **Header** (first frame, exactly once): workload name, `n_kernels`,
//!   then per kernel its name, `n_ctas`, and `threads_per_cta`.
//! * **Warp chunk**: `kernel_idx`, `first_warp` (global CTA-major warp
//!   index within the kernel), `n_warps`, then `n_warps` warp encodings.
//!   Chunks cover each kernel's warps contiguously and never span
//!   kernels; writers flush at ~64 KiB, so readers decode with memory
//!   bounded by the chunk size, not the trace size.
//! * **End** (last frame, exactly once): total warps, total ops, total
//!   warp instructions — cross-checked against the decoded body.
//!
//! Any other version byte — including `1`, an unframed format that
//! earlier builds wrote — is refused with
//! [`TraceReadError::UnsupportedVersion`].
//!
//! # Op encoding
//!
//! Each warp starts with a varint op-count. Ops are tagged with one byte:
//! bits 1..0 = kind (0 compute, 1 load, 2 store, 3 atomic); bit 2 = L1
//! bypass. Compute carries a varint batch size; memory ops carry `txns`
//! (u8), a varint transaction stride, and the line address as a zigzag
//! varint delta against the previous memory address of the same warp —
//! sequential streams compress to ~2 bytes per access. The delta baseline
//! resets per warp.
//!
//! # Semantic hash
//!
//! [`semantic_hash_of`] gives every workload a 64-bit content identity:
//! FNV-1a over `n_kernels`, then per kernel `n_ctas`,
//! `threads_per_cta`, and every warp's canonical op encoding. Names and
//! framing are excluded, so the same instruction streams hash identically
//! whether generated synthetically or read from a file, however its
//! warps are chunked — this is the content address the trace store keys
//! on.
//! [`TraceReader`] computes it incrementally while streaming.

mod reader;
mod wire;
mod writer;

use std::error::Error;
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

use crate::model::WorkloadModel;
use crate::op::Op;
use crate::pattern::WarpStream;

pub use reader::TraceReader;
pub use writer::write_trace;

/// Frame kind: the header frame (first, exactly once).
const FRAME_HEADER: u8 = 1;
/// Frame kind: a warp-chunk frame.
const FRAME_CHUNK: u8 = 2;
/// Frame kind: the end-of-trace frame (last, exactly once).
const FRAME_END: u8 = 3;

/// Decode-side resource limits. Every length and count a trace file
/// declares is validated against these before any allocation or further
/// reading, so hostile inputs fail cleanly instead of exhausting memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLimits {
    /// Maximum total file size consumed, in bytes.
    pub max_file_bytes: u64,
    /// Maximum frame payload size, in bytes.
    pub max_chunk_bytes: u64,
    /// Maximum number of kernels a trace may declare.
    pub max_kernels: u64,
    /// Maximum total warps across all kernels.
    pub max_warps: u64,
    /// Maximum ops a single warp may declare.
    pub max_ops_per_warp: u64,
    /// Maximum length of workload/kernel names, in bytes.
    pub max_name_bytes: u64,
}

impl Default for TraceLimits {
    fn default() -> Self {
        Self {
            max_file_bytes: 1 << 30,
            max_chunk_bytes: 16 << 20,
            max_kernels: 4096,
            max_warps: 1 << 24,
            max_ops_per_warp: 1 << 26,
            max_name_bytes: 4096,
        }
    }
}

impl TraceLimits {
    /// Returns a copy with `max_file_bytes` replaced (the most commonly
    /// tightened knob — e.g. an upload body cap).
    #[must_use]
    pub fn with_max_file_bytes(mut self, bytes: u64) -> Self {
        self.max_file_bytes = bytes;
        self
    }
}

/// Why a trace failed to decode. Variants are distinct so callers (the
/// CLI, the trace store, the HTTP service) can surface precise failure
/// classes — wrong file type vs. wrong version vs. corruption vs. a
/// resource limit.
#[derive(Debug)]
pub enum TraceReadError {
    /// The input does not start with the `GSTR` magic (or is shorter than
    /// the preamble).
    NotATrace,
    /// The version byte names a format this reader does not know.
    UnsupportedVersion(u8),
    /// A declared size or count exceeds the configured [`TraceLimits`].
    TooLarge(String),
    /// The input is recognisably a trace but structurally invalid:
    /// truncated, checksum mismatch, out-of-order chunks, bad totals, …
    Corrupt(String),
    /// The underlying reader failed.
    Io(io::Error),
}

impl TraceReadError {
    fn corrupt(msg: impl Into<String>) -> Self {
        Self::Corrupt(msg.into())
    }
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotATrace => write!(f, "not a GSTR trace file"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            Self::TooLarge(msg) => write!(f, "trace exceeds limits: {msg}"),
            Self::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            Self::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl Error for TraceReadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<TraceReadError> for io::Error {
    fn from(e: TraceReadError) -> Self {
        match e {
            TraceReadError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Static description of one kernel, as recorded in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
    /// Kernel display name.
    pub name: String,
    /// Grid size in CTAs.
    pub n_ctas: u32,
    /// Threads per CTA (1..=1024).
    pub threads_per_cta: u32,
}

impl KernelMeta {
    /// Warps per CTA (threads rounded up to 32-wide warps).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(32)
    }
}

/// Totals and gauges accumulated by a [`TraceReader`] over a full pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Warps decoded.
    pub total_warps: u64,
    /// Ops decoded across all warps.
    pub total_ops: u64,
    /// Warp instructions (compute batches weighted by batch size).
    pub total_warp_instrs: u64,
    /// Content identity of the decoded streams (see [`semantic_hash_of`]).
    pub semantic_hash: u64,
    /// Bytes consumed from the input.
    pub bytes_read: u64,
    /// Peak bytes buffered while decoding: the 64 KiB input buffer plus
    /// the largest frame payload. Bounded by the chunk size, not the trace
    /// size.
    pub peak_buffer_bytes: usize,
}

/// One decoded warp, as yielded by [`TraceReader::next_warp`].
#[derive(Debug, Clone)]
pub struct TracedWarp {
    /// Kernel index.
    pub kernel: usize,
    /// CTA index within the kernel's grid.
    pub cta: u32,
    /// Warp index within the CTA.
    pub warp: u32,
    /// The warp's full op stream.
    pub ops: Vec<Op>,
}

/// Computes the content identity of a workload: the FNV-1a 64 hash of its
/// kernel grids and every warp's canonical op encoding, excluding all
/// names. Two workloads hash equal iff the simulator would see identical
/// instruction streams, regardless of how they are stored or labelled.
pub fn semantic_hash_of<M: WorkloadModel>(wl: &M) -> u64 {
    let mut sink = wire::FnvSink::new();
    wire::put_varint(&mut sink, wl.n_kernels() as u64);
    let mut ops = Vec::new();
    for k in 0..wl.n_kernels() {
        let (n_ctas, threads_per_cta) = wl.grid(k);
        wire::put_varint(&mut sink, u64::from(n_ctas));
        wire::put_varint(&mut sink, u64::from(threads_per_cta));
        for cta in 0..n_ctas {
            for warp in 0..wl.warps_per_cta(k) {
                ops.clear();
                let mut stream = wl.warp_stream(k, cta, warp);
                while let Some(op) = stream.next_op() {
                    ops.push(op);
                }
                wire::encode_ops(&mut sink, &ops);
            }
        }
    }
    sink.0
}

#[derive(Debug, Clone)]
struct TracedKernel {
    name: String,
    n_ctas: u32,
    threads_per_cta: u32,
    /// Ops per warp, CTA-major; shared with every stream over the warp.
    warps: Vec<Arc<[Op]>>,
}

/// A workload read back from a trace file; replayable through the
/// simulator via [`WorkloadModel`].
#[derive(Debug, Clone)]
pub struct TracedWorkload {
    name: String,
    kernels: Vec<TracedKernel>,
    total_warp_instrs: u64,
}

impl TracedWorkload {
    /// Reads and fully materialises a trace with default [`TraceLimits`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceReadError`] on I/O failure or a malformed,
    /// oversized, or unsupported file. `?` still works in `io::Result`
    /// contexts via the provided `From` conversion.
    pub fn read<R: Read>(input: R) -> Result<Self, TraceReadError> {
        Self::read_with_limits(input, TraceLimits::default())
    }

    /// As [`TracedWorkload::read`], with explicit limits — e.g. a
    /// caller-configured maximum file size.
    ///
    /// # Errors
    ///
    /// As [`TracedWorkload::read`].
    pub fn read_with_limits<R: Read>(
        input: R,
        limits: TraceLimits,
    ) -> Result<Self, TraceReadError> {
        let mut reader = TraceReader::with_limits(input, limits)?;
        let mut warps_by_kernel: Vec<Vec<Arc<[Op]>>> = Vec::new();
        while let Some(w) = reader.next_warp()? {
            if warps_by_kernel.len() <= w.kernel {
                warps_by_kernel.resize_with(w.kernel + 1, Vec::new);
            }
            warps_by_kernel[w.kernel].push(w.ops.into());
        }
        let stats = *reader.stats().expect("reader finished");
        warps_by_kernel.resize_with(reader.n_kernels(), Vec::new);
        let kernels = reader
            .kernels()
            .iter()
            .zip(warps_by_kernel)
            .map(|(meta, warps)| TracedKernel {
                name: meta.name.clone(),
                n_ctas: meta.n_ctas,
                threads_per_cta: meta.threads_per_cta,
                warps,
            })
            .collect();
        Ok(Self {
            name: reader.name().to_string(),
            kernels,
            total_warp_instrs: stats.total_warp_instrs,
        })
    }

    /// Name of kernel `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn kernel_name(&self, kernel: usize) -> &str {
        &self.kernels[kernel].name
    }

    /// Total warp instructions recorded.
    pub fn total_warp_instrs(&self) -> u64 {
        self.total_warp_instrs
    }
}

/// Replay stream over a recorded warp: a cursor into the warp's ops,
/// which every stream over the warp shares with the workload.
#[derive(Debug, Clone)]
pub struct TraceStream {
    ops: Arc<[Op]>,
    next: usize,
}

impl WarpStream for TraceStream {
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        let op = *self.ops.get(self.next)?;
        self.next += 1;
        Some(op)
    }
}

impl WorkloadModel for TracedWorkload {
    type Stream = TraceStream;

    fn name(&self) -> &str {
        &self.name
    }

    fn n_kernels(&self) -> usize {
        self.kernels.len()
    }

    fn grid(&self, kernel: usize) -> (u32, u32) {
        let k = &self.kernels[kernel];
        (k.n_ctas, k.threads_per_cta)
    }

    fn warp_stream(&self, kernel: usize, cta: u32, warp: u32) -> TraceStream {
        let k = &self.kernels[kernel];
        let wpc = k.threads_per_cta.div_ceil(32);
        assert!(
            cta < k.n_ctas && warp < wpc,
            "warp coordinates out of range"
        );
        let idx = (cta * wpc + warp) as usize;
        TraceStream {
            ops: Arc::clone(&k.warps[idx]),
            next: 0,
        }
    }

    fn approx_warp_instrs(&self) -> u64 {
        self.total_warp_instrs
    }

    fn kernel_name(&self, kernel: usize) -> String {
        self.kernels[kernel].name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, Workload};
    use crate::pattern::{PatternKind, PatternSpec};

    fn demo() -> Workload {
        let sweep = PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 512)
            .compute_per_mem(1.5)
            .write_frac(0.2);
        let chase = PatternSpec::new(PatternKind::PointerChase, 4096)
            .mem_ops_per_warp(20)
            .divergence(4)
            .shared_hot(0.1, 8);
        Workload::new(
            "demo",
            77,
            vec![
                Kernel::new("sweep", 12, 256, sweep),
                Kernel::new("chase", 6, 128, chase),
            ],
        )
    }

    fn assert_replays_identically(wl: &Workload, traced: &TracedWorkload) {
        for kidx in 0..wl.kernels().len() {
            let k = &wl.kernels()[kidx];
            for cta in 0..k.n_ctas() {
                for warp in 0..k.warps_per_cta() {
                    let mut orig = k.warp_stream(wl, kidx, cta, warp);
                    let mut replay = traced.warp_stream(kidx, cta, warp);
                    loop {
                        let (a, b) = (orig.next_op(), replay.next_op());
                        assert_eq!(a, b, "kernel {kidx} cta {cta} warp {warp}");
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
        }
    }

    fn roundtrip(wl: &Workload) -> TracedWorkload {
        let mut bytes = Vec::new();
        write_trace(wl, &mut bytes).expect("in-memory write");
        TracedWorkload::read(&bytes[..]).expect("well-formed trace")
    }

    #[test]
    fn v2_roundtrip_preserves_every_op() {
        let wl = demo();
        let traced = roundtrip(&wl);
        assert_eq!(WorkloadModel::name(&traced), "demo");
        assert_eq!(traced.n_kernels(), 2);
        assert_eq!(traced.grid(0), (12, 256));
        assert_eq!(traced.kernel_name(1), "chase");
        assert_replays_identically(&wl, &traced);
        assert_eq!(traced.total_warp_instrs(), wl.approx_warp_instrs());
        assert_eq!(semantic_hash_of(&traced), semantic_hash_of(&wl));
    }

    #[test]
    fn semantic_hash_is_version_and_name_independent() {
        let wl = demo();
        let direct = semantic_hash_of(&wl);

        // The streaming reader's hash of the file is the generator's.
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        let mut reader = TraceReader::new(&bytes[..]).expect("open");
        while reader.next_warp().expect("stream").is_some() {}
        assert_eq!(reader.stats().expect("done").semantic_hash, direct);

        // Renaming workload/kernels does not change the identity…
        let renamed = Workload::new("other-name", 77, {
            let sweep = PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 512)
                .compute_per_mem(1.5)
                .write_frac(0.2);
            let chase = PatternSpec::new(PatternKind::PointerChase, 4096)
                .mem_ops_per_warp(20)
                .divergence(4)
                .shared_hot(0.1, 8);
            vec![
                Kernel::new("a", 12, 256, sweep),
                Kernel::new("b", 6, 128, chase),
            ]
        });
        assert_eq!(semantic_hash_of(&renamed), direct);

        // …but changing the streams does.
        let other = Workload::new("demo", 78, {
            let sweep = PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 512)
                .compute_per_mem(1.5)
                .write_frac(0.2);
            vec![Kernel::new("sweep", 12, 256, sweep)]
        });
        assert_ne!(semantic_hash_of(&other), direct);
    }

    /// Streams over one warp share its ops: each starts at the first op,
    /// one running ahead does not move the other, and both yield the ops
    /// the reader decoded for the warp, in order.
    #[test]
    fn streams_of_one_warp_each_yield_the_whole_warp() {
        let wl = demo();
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("in-memory write");
        let traced = TracedWorkload::read(&bytes[..]).expect("well-formed trace");
        let mut reader = TraceReader::new(&bytes[..]).expect("open");
        let drain =
            |mut s: TraceStream| std::iter::from_fn(move || s.next_op()).collect::<Vec<_>>();
        while let Some(w) = reader.next_warp().expect("stream") {
            assert!(!w.ops.is_empty());
            let mut ahead = traced.warp_stream(w.kernel, w.cta, w.warp);
            let behind = traced.warp_stream(w.kernel, w.cta, w.warp);
            assert_eq!(ahead.next_op(), Some(w.ops[0]));
            assert_eq!(drain(behind), w.ops);
            assert_eq!(drain(ahead), w.ops[1..]);
        }
    }

    #[test]
    fn sequential_traces_compress_well() {
        let sweep =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 4096).compute_per_mem(1.0);
        let wl = Workload::new("seq", 1, vec![Kernel::new("k", 16, 256, sweep)]);
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        let ops = wl.approx_warp_instrs();
        let per_op = bytes.len() as f64 / ops as f64;
        assert!(
            per_op < 5.0,
            "expected compact encoding, got {per_op:.1} B/op"
        );
    }

    #[test]
    fn rejects_garbage_magic_version_and_truncation() {
        assert!(matches!(
            TracedWorkload::read(&b"NOPE"[..]),
            Err(TraceReadError::NotATrace)
        ));
        assert!(matches!(
            TracedWorkload::read(&b""[..]),
            Err(TraceReadError::NotATrace)
        ));
        let wl = demo();
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        let cut = &bytes[..bytes.len() / 2];
        assert!(TracedWorkload::read(cut).is_err());
        // Version 1, the unframed format earlier builds wrote, is refused
        // like any other version this reader does not know.
        for version in [0u8, 1, 3, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[4] = version;
            let err = TracedWorkload::read(&wrong_version[..]).expect_err("refused");
            assert!(
                matches!(err, TraceReadError::UnsupportedVersion(v) if v == version),
                "version {version}: {err}"
            );
        }
    }

    #[test]
    fn detects_payload_corruption_via_checksum() {
        let wl = demo();
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        // Flip one bit somewhere inside the frame stream (past the
        // preamble); the frame checksum must catch it.
        let mid = 5 + (bytes.len() - 5) / 2;
        bytes[mid] ^= 0x40;
        let err = TracedWorkload::read(&bytes[..]).expect_err("corruption detected");
        assert!(
            matches!(
                err,
                TraceReadError::Corrupt(_) | TraceReadError::TooLarge(_)
            ),
            "unexpected error class: {err}"
        );
    }

    #[test]
    fn streaming_reader_reports_stats() {
        let wl = demo();
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        let mut reader = TraceReader::new(&bytes[..]).expect("open");
        assert_eq!(reader.name(), "demo");
        assert_eq!(reader.n_kernels(), 2);
        assert_eq!(reader.kernels().len(), 2, "metadata is known up front");
        assert!(reader.stats().is_none(), "no stats before the end");
        let mut warps = 0u64;
        while let Some(w) = reader.next_warp().expect("clean stream") {
            assert!(w.kernel < 2);
            warps += 1;
        }
        let stats = reader.stats().expect("stats after the end");
        assert_eq!(stats.total_warps, warps);
        assert_eq!(stats.total_warp_instrs, wl.approx_warp_instrs());
        assert_eq!(stats.semantic_hash, semantic_hash_of(&wl));
        assert_eq!(stats.bytes_read, bytes.len() as u64);
    }

    /// A trace that is only a preamble and one checksummed header frame
    /// holding `payload`.
    fn header_only(payload: &[u8]) -> Vec<u8> {
        let mut bytes = b"GSTR".to_vec();
        bytes.push(wire::VERSION);
        bytes.push(FRAME_HEADER);
        wire::put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&wire::fnv1a(payload).to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_counts_fail_cleanly_without_huge_allocation() {
        // A tiny, well-checksummed header declaring a huge kernel count
        // must not preallocate; it must fail with a clean error.
        let mut payload = vec![0]; // empty name
        wire::put_varint(&mut payload, u64::MAX - 1); // kernels
        let err = TracedWorkload::read(&header_only(&payload)[..]).expect_err("kernel budget");
        assert!(matches!(err, TraceReadError::TooLarge(_)), "got {err}");

        // A header declaring a huge CTA grid (huge warp count) likewise.
        let mut payload = vec![0, 1, 0]; // empty names, one kernel
        wire::put_varint(&mut payload, u64::from(u32::MAX)); // n_ctas
        wire::put_varint(&mut payload, 32); // threads_per_cta
        let err = TracedWorkload::read(&header_only(&payload)[..]).expect_err("warp budget");
        assert!(matches!(err, TraceReadError::TooLarge(_)), "got {err}");

        // And a max-size file limit is enforceable.
        let wl = demo();
        let mut trace = Vec::new();
        write_trace(&wl, &mut trace).expect("write");
        let tight = TraceLimits::default().with_max_file_bytes(16);
        let err = TracedWorkload::read_with_limits(&trace[..], tight).expect_err("file too big");
        assert!(matches!(err, TraceReadError::TooLarge(_)), "got {err}");
    }
}
