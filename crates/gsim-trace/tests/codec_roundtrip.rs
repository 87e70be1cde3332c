//! Codec round-trips over the whole synthetic suite.
//!
//! Every strong- and weak-scaling workload is encoded as a trace file and
//! decoded back; the decoded streams must match the generator op for op,
//! and the content identity (semantic hash) of the decode must equal the
//! generator's. Randomized workloads across all
//! pattern kinds widen the input space beyond the curated suite, and the
//! streaming decoder is checked against the buffered one — including
//! under pathological one-byte reads — plus a multi-megabyte trace whose
//! decode must stay bounded by the chunk size, not the trace size.

use std::io::Read;

use gsim_rng::Rng64;
use gsim_trace::suite::strong_suite;
use gsim_trace::weak::weak_suite;
use gsim_trace::{
    semantic_hash_of, write_trace, Kernel, MemScale, PatternKind, PatternSpec, TraceReader,
    TracedWorkload, WarpStream, Workload, WorkloadModel,
};

/// Caps every kernel's grid so encoding all ~30 suite workloads stays
/// fast. The patterns, per-warp streams, and kernel sequences are
/// preserved; only the grid shrinks.
fn shrunk(wl: &Workload) -> Workload {
    let kernels = wl
        .kernels()
        .iter()
        .map(|k| {
            Kernel::new(
                k.name(),
                k.n_ctas().min(12),
                k.threads_per_cta(),
                k.spec().clone(),
            )
        })
        .collect();
    Workload::new(wl.name(), wl.seed(), kernels)
}

/// Asserts two workload models yield identical op streams for every warp.
fn assert_same_streams<A: WorkloadModel, B: WorkloadModel>(a: &A, b: &B, label: &str) {
    assert_eq!(a.n_kernels(), b.n_kernels(), "{label}: kernel count");
    for kernel in 0..a.n_kernels() {
        assert_eq!(a.grid(kernel), b.grid(kernel), "{label}: kernel {kernel}");
        let (n_ctas, _) = a.grid(kernel);
        for cta in 0..n_ctas {
            for warp in 0..a.warps_per_cta(kernel) {
                let mut x = a.warp_stream(kernel, cta, warp);
                let mut y = b.warp_stream(kernel, cta, warp);
                loop {
                    let (ox, oy) = (x.next_op(), y.next_op());
                    assert_eq!(ox, oy, "{label}: kernel {kernel} cta {cta} warp {warp}");
                    if ox.is_none() {
                        break;
                    }
                }
            }
        }
    }
}

/// Round-trips one workload through a trace file and checks op-level
/// equality plus content identity.
fn check_roundtrip(wl: &Workload, label: &str) {
    let mut bytes = Vec::new();
    write_trace(wl, &mut bytes).expect("write");
    assert_eq!(bytes[4], 2, "{label}: version byte");

    let decoded = TracedWorkload::read(&bytes[..]).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_same_streams(wl, &decoded, label);
    assert_eq!(
        semantic_hash_of(&decoded),
        semantic_hash_of(wl),
        "{label}: identity"
    );
}

#[test]
fn every_suite_workload_roundtrips_across_both_formats() {
    let scale = MemScale::default();
    for bench in strong_suite(scale) {
        check_roundtrip(&shrunk(&bench.workload), &format!("strong {}", bench.abbr));
    }
    for bench in weak_suite(scale) {
        // The smallest weak-scaling input; larger rows only scale the
        // grid, which `shrunk` caps anyway.
        check_roundtrip(
            &shrunk(&bench.workload_for_row(0)),
            &format!("weak {}", bench.abbr),
        );
    }
}

#[test]
fn randomized_workloads_roundtrip_bit_exact() {
    let mut rng = Rng64::seed_from_u64(0x5eed_cafe);
    for case in 0..24 {
        let n_kernels = rng.gen_range(1, 4) as usize;
        let kernels = (0..n_kernels)
            .map(|i| {
                let footprint = rng.gen_range(64, 8192);
                let kind = match rng.gen_range(0, 5) {
                    0 => PatternKind::GlobalSweep {
                        passes: rng.gen_range(1, 4) as u32,
                    },
                    1 => PatternKind::Streaming,
                    2 => PatternKind::PointerChase,
                    3 => PatternKind::Tiled {
                        tile_lines: rng.gen_range(4, 64),
                        reuses: rng.gen_range(1, 8) as u32,
                    },
                    _ => PatternKind::WorkingSetMix {
                        levels: vec![(1.0, 0.25), (rng.next_f64() + 0.1, 0.75)],
                    },
                };
                let mut spec = PatternSpec::new(kind, footprint)
                    .mem_ops_per_warp(rng.gen_range(1, 40) as u32)
                    .compute_per_mem(rng.next_f64() * 4.0)
                    .write_frac(rng.next_f64() * 0.5)
                    .divergence(rng.gen_range(1, 9) as u8)
                    .tail_compute(rng.gen_range(0, 16) as u32);
                if rng.gen_bool(0.3) {
                    spec = spec.shared_hot(rng.next_f64() * 0.3, rng.gen_range(1, 32));
                }
                Kernel::new(
                    format!("k{i}"),
                    rng.gen_range(1, 8) as u32,
                    rng.gen_range(1, 512) as u32,
                    spec,
                )
            })
            .collect();
        let wl = Workload::new(format!("rand{case}"), rng.next_u64(), kernels);
        check_roundtrip(&wl, &format!("randomized case {case}"));
    }
}

/// A reader that returns at most `chunk` bytes per call — the worst-case
/// framing a network or pipe source can present.
struct SmallReads<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> Read for SmallReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

#[test]
fn streaming_decoder_matches_buffered_even_under_tiny_reads() {
    let spec = PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, 2048)
        .compute_per_mem(1.5)
        .write_frac(0.25)
        .divergence(2);
    let wl = Workload::new("streamed", 9, vec![Kernel::new("k", 24, 192, spec)]);

    let mut bytes = Vec::new();
    write_trace(&wl, &mut bytes).expect("write");
    let buffered = TracedWorkload::read(&bytes[..]).expect("buffered read");
    let mut reader = TraceReader::new(SmallReads {
        inner: &bytes[..],
        chunk: 7,
    })
    .expect("streaming open");
    let mut streamed_warps = 0u64;
    // Cross-check each streamed warp against the buffered replay.
    while let Some(warp) = reader.next_warp().expect("stream") {
        let mut replay = buffered.warp_stream(warp.kernel, warp.cta, warp.warp);
        for op in &warp.ops {
            assert_eq!(Some(*op), replay.next_op());
        }
        assert_eq!(replay.next_op(), None, "stream tail");
        streamed_warps += 1;
    }
    let stats = reader.stats().expect("stats");
    assert_eq!(stats.total_warps, streamed_warps);
    assert_eq!(stats.semantic_hash, semantic_hash_of(&wl));
    assert_eq!(stats.bytes_read, bytes.len() as u64);
}

#[test]
fn multi_megabyte_trace_streams_with_bounded_memory() {
    // ~1.5M ops across 16K warps: a trace far larger than any single
    // chunk. The decoder must hold one chunk at a time.
    let spec = PatternSpec::new(PatternKind::PointerChase, 1 << 20).mem_ops_per_warp(48);
    let wl = Workload::new("big", 3, vec![Kernel::new("k", 2048, 256, spec)]);
    let mut bytes = Vec::new();
    write_trace(&wl, &mut bytes).expect("write");
    assert!(
        bytes.len() > 3 * 1024 * 1024,
        "want a multi-MB trace, got {} bytes",
        bytes.len()
    );

    let mut reader = TraceReader::new(&bytes[..]).expect("open");
    while reader.next_warp().expect("stream").is_some() {}
    let stats = reader.stats().expect("stats");
    assert_eq!(stats.bytes_read, bytes.len() as u64);
    assert!(
        stats.peak_buffer_bytes < 1024 * 1024,
        "decode buffer must be bounded by the chunk size, not the \
         {}-byte trace: peak {}",
        bytes.len(),
        stats.peak_buffer_bytes
    );
}
