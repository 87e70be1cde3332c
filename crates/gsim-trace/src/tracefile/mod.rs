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
//! # Format version 2 (current)
//!
//! All integers are LEB128 varints unless noted. After a 5-byte preamble
//! (magic `"GSTR"`, version byte `2`) the file is a sequence of frames:
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
//! # Format version 1 (legacy, still readable)
//!
//! The same preamble with version byte `1`, then an unframed body: name,
//! `n_kernels`, and per kernel its name, `n_ctas`, `threads_per_cta`,
//! and every warp's ops back to back (CTA-major).
//!
//! # Op encoding (identical in both versions)
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
//! whether generated synthetically, read from a v1 file, or read from a
//! v2 file — this is the content address the trace store keys on.
//! [`TraceReader`] computes it incrementally while streaming.

mod reader;
mod wire;
mod writer;

use std::error::Error;
use std::fmt;
use std::io::{self, Read};

use crate::model::WorkloadModel;
use crate::op::Op;
use crate::pattern::WarpStream;

pub use reader::TraceReader;
pub use writer::{write_trace, write_trace_v1};

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
    /// Maximum v2 frame payload size, in bytes.
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
    /// Peak bytes buffered while decoding (input buffer + current chunk);
    /// bounded by the chunk size, not the trace size.
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
    /// Ops per warp, CTA-major.
    warps: Vec<Vec<Op>>,
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
    /// Reads and fully materialises a trace (either format version) with
    /// default [`TraceLimits`].
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
        let mut warps_by_kernel: Vec<Vec<Vec<Op>>> = Vec::new();
        while let Some(w) = reader.next_warp()? {
            if warps_by_kernel.len() <= w.kernel {
                warps_by_kernel.resize_with(w.kernel + 1, Vec::new);
            }
            warps_by_kernel[w.kernel].push(w.ops);
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

    /// Keeps only the first `ceil(n_ctas * fraction)` CTAs of each kernel
    /// — the kernel-sampling acceleration of prior work (Baddouh et al.'s
    /// principal kernel analysis family \[8\]): the sampled CTAs' streams
    /// are bit-identical to the full run's, only the grid shrinks. The
    /// per-kernel scale factors `n_full / n_sampled` are returned for
    /// extrapolation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn with_cta_fraction(&self, fraction: f64) -> (TracedWorkload, Vec<f64>) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        let mut factors = Vec::with_capacity(self.kernels.len());
        let mut total = 0u64;
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let keep = ((f64::from(k.n_ctas) * fraction).ceil() as u32).clamp(1, k.n_ctas);
                factors.push(f64::from(k.n_ctas) / f64::from(keep));
                let wpc = k.threads_per_cta.div_ceil(32) as usize;
                let warps: Vec<Vec<Op>> = k.warps[..keep as usize * wpc].to_vec();
                total += warps
                    .iter()
                    .flat_map(|ops| ops.iter().map(Op::warp_instrs))
                    .sum::<u64>();
                TracedKernel {
                    name: k.name.clone(),
                    n_ctas: keep,
                    threads_per_cta: k.threads_per_cta,
                    warps,
                }
            })
            .collect();
        (
            TracedWorkload {
                name: format!("{}@{:.3}", self.name, fraction),
                kernels,
                total_warp_instrs: total,
            },
            factors,
        )
    }
}

/// Replay stream over a recorded warp (an owned op cursor).
#[derive(Debug, Clone)]
pub struct TraceStream {
    ops: std::vec::IntoIter<Op>,
}

impl WarpStream for TraceStream {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
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
            ops: k.warps[idx].clone().into_iter(),
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
    fn v1_roundtrip_preserves_every_op() {
        let wl = demo();
        let mut bytes = Vec::new();
        write_trace_v1(&wl, &mut bytes).expect("write v1");
        assert_eq!(bytes[4], 1, "v1 writer emits version byte 1");
        let traced = TracedWorkload::read(&bytes[..]).expect("read v1");
        assert_replays_identically(&wl, &traced);
        assert_eq!(traced.total_warp_instrs(), wl.approx_warp_instrs());
    }

    #[test]
    fn semantic_hash_is_version_and_name_independent() {
        let wl = demo();
        let direct = semantic_hash_of(&wl);

        let mut v2 = Vec::new();
        write_trace(&wl, &mut v2).expect("write v2");
        let mut v1 = Vec::new();
        write_trace_v1(&wl, &mut v1).expect("write v1");
        for bytes in [&v2, &v1] {
            let mut reader = TraceReader::new(&bytes[..]).expect("open");
            while reader.next_warp().expect("stream").is_some() {}
            assert_eq!(reader.stats().expect("done").semantic_hash, direct);
        }

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
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            TracedWorkload::read(&wrong_version[..]),
            Err(TraceReadError::UnsupportedVersion(99))
        ));
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
        assert_eq!(reader.version(), 2);
        assert_eq!(reader.name(), "demo");
        assert_eq!(reader.n_kernels(), 2);
        assert_eq!(reader.kernels().len(), 2, "v2 metadata is known up front");
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

    #[test]
    fn hostile_counts_fail_cleanly_without_huge_allocation() {
        // A tiny v1 file declaring a huge kernel count must not
        // preallocate; it must fail with a clean error.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GSTR");
        bytes.push(1);
        bytes.push(0); // empty name
        bytes.extend_from_slice(&[0xff; 9]); // varint ≈ u64::MAX kernels
        bytes.push(0x01);
        assert!(TracedWorkload::read(&bytes[..]).is_err());

        // A v1 file declaring a huge CTA grid (huge warp count) likewise.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GSTR");
        bytes.push(1);
        bytes.push(0); // empty workload name
        bytes.push(1); // one kernel
        bytes.push(0); // empty kernel name
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]); // n_ctas = u32::MAX
        bytes.push(32); // threads_per_cta = 32
        let err = TracedWorkload::read(&bytes[..]).expect_err("warp budget");
        assert!(matches!(err, TraceReadError::TooLarge(_)), "got {err}");

        // And a max-size file limit is enforceable.
        let wl = demo();
        let mut trace = Vec::new();
        write_trace(&wl, &mut trace).expect("write");
        let tight = TraceLimits::default().with_max_file_bytes(16);
        let err = TracedWorkload::read_with_limits(&trace[..], tight).expect_err("file too big");
        assert!(matches!(err, TraceReadError::TooLarge(_)), "got {err}");
    }

    #[test]
    fn cta_sampling_keeps_prefix_streams_identical() {
        let wl = demo();
        let traced = roundtrip(&wl);
        let (half, factors) = traced.with_cta_fraction(0.5);
        assert_eq!(half.grid(0).0, 6); // 12 CTAs -> 6
        assert_eq!(half.grid(1).0, 3);
        assert_eq!(factors, vec![2.0, 2.0]);
        let mut a = traced.warp_stream(0, 2, 1);
        let mut b = half.warp_stream(0, 2, 1);
        loop {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
        assert!(half.total_warp_instrs() < traced.total_warp_instrs());
        assert_ne!(semantic_hash_of(&half), semantic_hash_of(&traced));
    }
}
