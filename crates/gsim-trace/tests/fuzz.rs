//! The trace reader's fuzz slice: seeded hostile files — valid traces
//! with flipped bits, cuts and inserted bytes; frames whose checksum is
//! repaired after the payload was changed, so corrupt lengths, counts,
//! kinds and chunk positions reach the decoder; chunks reordered, dropped
//! or repeated; varints running past `u64` — every one delivered in
//! reads of 1 to 7 bytes. Each input must end in `Ok` or a
//! [`TraceReadError`] without a panic and yield no more warps than it has
//! bytes; when it decodes, its chunk headers must declare exactly the
//! warps it yielded, and the reader must have buffered no more than the
//! chunk limit plus one 64 KiB refill block. Fixed seeds; well under a
//! second in a debug build.

use std::io::Read;

use gsim_rng::Rng64;
use gsim_trace::{
    write_trace, Kernel, PatternKind, PatternSpec, TraceLimits, TraceReadError, TraceReader,
    Workload,
};

/// The reader's input buffer: one refill block, whatever the frame size.
const FILL_BLOCK: usize = 64 * 1024;

const FRAME_CHUNK: u8 = 2;

fn pick<T: Copy>(rng: &mut Rng64, from: &[T]) -> T {
    from[rng.gen_range(0, from.len() as u64) as usize]
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes a varint at `*pos`; `None` past the end or past ten bytes.
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..70).step_by(7) {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f).checked_shl(shift).unwrap_or(0);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// FNV-1a 64, the frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A trace file split into its preamble and `(kind, payload)` frames.
struct Frames {
    preamble: Vec<u8>,
    frames: Vec<(u8, Vec<u8>)>,
}

impl Frames {
    fn parse(bytes: &[u8]) -> Self {
        let mut frames = Vec::new();
        let mut pos = 5;
        while pos < bytes.len() {
            let kind = bytes[pos];
            pos += 1;
            let len = get_varint(bytes, &mut pos).expect("writer's own length") as usize;
            frames.push((kind, bytes[pos..pos + len].to_vec()));
            pos += len + 8;
        }
        Self {
            preamble: bytes[..5].to_vec(),
            frames,
        }
    }

    /// Reassembles the file with every checksum recomputed.
    fn assemble(&self) -> Vec<u8> {
        let mut out = self.preamble.clone();
        for (kind, payload) in &self.frames {
            out.push(*kind);
            put_varint(&mut out, payload.len() as u64);
            out.extend_from_slice(payload);
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        }
        out
    }

    fn chunk_indices(&self) -> Vec<usize> {
        (0..self.frames.len())
            .filter(|&i| self.frames[i].0 == FRAME_CHUNK)
            .collect()
    }
}

/// Valid traces to mutate: first one kernel large enough to span two
/// chunks, then small ones with two kernels (so two chunks) each, over
/// mixed pattern families.
fn seeds() -> Vec<Vec<u8>> {
    let small = |seed: u64, kind: PatternKind| {
        let spec = PatternSpec::new(kind, 512)
            .mem_ops_per_warp(6)
            .compute_per_mem(1.5)
            .write_frac(0.25)
            .divergence(2);
        Workload::new(
            "fuzz",
            seed,
            vec![
                Kernel::new("a", 3, 64, spec.clone()),
                Kernel::new("b", 2, 96, spec.shared_hot(0.2, 4)),
            ],
        )
    };
    let two_chunks = Workload::new(
        "wide",
        7,
        vec![Kernel::new(
            "k",
            96,
            256,
            PatternSpec::new(PatternKind::PointerChase, 1 << 20).mem_ops_per_warp(40),
        )],
    );
    let workloads = [
        two_chunks,
        small(1, PatternKind::GlobalSweep { passes: 2 }),
        small(2, PatternKind::PointerChase),
        small(
            3,
            PatternKind::Tiled {
                tile_lines: 8,
                reuses: 3,
            },
        ),
    ];
    workloads
        .iter()
        .map(|wl| {
            let mut bytes = Vec::new();
            write_trace(wl, &mut bytes).expect("in-memory write");
            bytes
        })
        .collect()
}

/// A varint that never ends inside 64 bits: ten or more continuation
/// bytes, then a terminator.
fn overlong_varint(rng: &mut Rng64) -> Vec<u8> {
    let mut v = vec![0xff; rng.gen_range(10, 16) as usize];
    v.push(pick(rng, &[0x00, 0x01, 0x7f]));
    v
}

/// One hostile input derived from the valid trace `base`.
fn mutate(rng: &mut Rng64, base: &[u8]) -> Vec<u8> {
    let mut frames = Frames::parse(base);
    let mut bytes = base.to_vec();
    match rng.gen_range(0, 9) {
        // Raw damage: the frame checksums see it.
        0 => {
            for _ in 0..rng.gen_range(1, 5) {
                let i = rng.gen_range(0, bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.gen_range(0, 8);
            }
        }
        1 => bytes.truncate(rng.gen_range(0, bytes.len() as u64) as usize),
        2 => {
            let at = rng.gen_range(0, bytes.len() as u64 + 1) as usize;
            let junk: Vec<u8> = (0..rng.gen_range(1, 9))
                .map(|_| rng.next_u64() as u8)
                .collect();
            bytes.splice(at..at, junk);
        }
        // Repaired payload damage: flips, cuts and inserts that pass the
        // checksum and reach the field decoder.
        3 => {
            let f = rng.gen_range(0, frames.frames.len() as u64) as usize;
            let payload = &mut frames.frames[f].1;
            match rng.gen_range(0, 3) {
                0 if !payload.is_empty() => {
                    let i = rng.gen_range(0, payload.len() as u64) as usize;
                    payload[i] ^= 1 << rng.gen_range(0, 8);
                }
                1 => payload.truncate(rng.gen_range(0, payload.len() as u64 + 1) as usize),
                _ => {
                    let at = rng.gen_range(0, payload.len() as u64 + 1) as usize;
                    payload.insert(at, rng.next_u64() as u8);
                }
            }
            bytes = frames.assemble();
        }
        // A chunk's position fields (kernel, first warp, warp count)
        // rewritten to neighbours of the truth or to extremes.
        4 => {
            let chunks = frames.chunk_indices();
            let c = pick(rng, &chunks);
            let payload = &frames.frames[c].1;
            let mut pos = 0;
            let mut fields = [0u64; 3];
            for f in &mut fields {
                *f = get_varint(payload, &mut pos).expect("writer's own chunk");
            }
            let which = rng.gen_range(0, 3) as usize;
            fields[which] = match rng.gen_range(0, 4) {
                0 => fields[which].wrapping_add(1),
                1 => fields[which].wrapping_sub(1),
                2 => 0,
                _ => pick(rng, &[u64::from(u32::MAX), u64::MAX, 1 << 40]),
            };
            let mut rewritten = Vec::new();
            for f in fields {
                put_varint(&mut rewritten, f);
            }
            rewritten.extend_from_slice(&payload[pos..]);
            frames.frames[c].1 = rewritten;
            bytes = frames.assemble();
        }
        // Chunks out of order, dropped or repeated.
        5 => {
            let chunks = frames.chunk_indices();
            let (a, b) = (pick(rng, &chunks), pick(rng, &chunks));
            match rng.gen_range(0, 3) {
                0 => frames.frames.swap(a, b),
                1 => {
                    frames.frames.remove(a);
                }
                _ => {
                    let copy = frames.frames[a].clone();
                    frames.frames.insert(b, copy);
                }
            }
            bytes = frames.assemble();
        }
        // A frame's kind byte changed, or two whole frames swapped.
        6 => {
            let f = rng.gen_range(0, frames.frames.len() as u64) as usize;
            if rng.gen_bool(0.5) {
                frames.frames[f].0 = pick(rng, &[0, 1, 2, 3, 4, 0xff]);
            } else {
                let g = rng.gen_range(0, frames.frames.len() as u64) as usize;
                frames.frames.swap(f, g);
            }
            bytes = frames.assemble();
        }
        // Varints past u64: inside a repaired payload, or as a frame's
        // own length prefix.
        7 => {
            let f = rng.gen_range(0, frames.frames.len() as u64) as usize;
            let payload = &mut frames.frames[f].1;
            let at = rng.gen_range(0, payload.len() as u64 + 1) as usize;
            let varint = overlong_varint(rng);
            payload.splice(at..at, varint);
            bytes = frames.assemble();
        }
        _ => {
            // The first frame's length prefix starts at byte 6.
            let mut pos = 6;
            get_varint(&bytes, &mut pos).expect("writer's own length");
            let varint = overlong_varint(rng);
            bytes.splice(6..pos, varint);
        }
    }
    bytes
}

/// A reader that returns between 1 and 7 bytes per call, as a pipe or
/// socket may.
struct TinyReads<'a> {
    rest: &'a [u8],
    rng: Rng64,
}

impl Read for TinyReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.rng.gen_range(1, 8) as usize)
            .min(buf.len())
            .min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Streams `input` to the end in tiny reads and checks the outcome.
fn check(input: &[u8], limits: TraceLimits, rng: &mut Rng64) -> Result<(), TraceReadError> {
    let src = TinyReads {
        rest: input,
        rng: Rng64::seed_from_u64(rng.next_u64()),
    };
    let mut reader = TraceReader::with_limits(src, limits)?;
    let mut warps = 0u64;
    while reader.next_warp()?.is_some() {
        warps += 1;
        // Every warp costs at least its op-count byte, so more warps than
        // bytes would mean the reader invents input.
        assert!(warps <= input.len() as u64, "{warps} warps from {input:?}");
    }
    let stats = reader.stats().expect("stats after the end");
    assert_eq!(stats.total_warps, warps);
    assert_eq!(
        stats.bytes_read,
        input.len() as u64,
        "a decode reads it all"
    );
    // Checked apart from the reader: the chunk headers of a file that
    // decodes account for exactly the warps it yielded.
    let declared: u64 = Frames::parse(input)
        .frames
        .iter()
        .filter(|(kind, _)| *kind == FRAME_CHUNK)
        .map(|(_, payload)| {
            let mut pos = 0;
            let mut field = || get_varint(payload, &mut pos).expect("a decoded chunk");
            let _kernel_and_first_warp = (field(), field());
            field()
        })
        .sum();
    assert_eq!(declared, warps, "chunk warp counts of a decoded file");
    let bound = limits.max_chunk_bytes as usize + FILL_BLOCK;
    assert!(
        stats.peak_buffer_bytes <= bound,
        "buffered {} > {bound}",
        stats.peak_buffer_bytes
    );
    Ok(())
}

#[test]
fn hostile_traces_end_in_ok_or_a_clean_error() {
    let mut rng = Rng64::seed_from_u64(0x5eed_7ace);
    let seeds = seeds();
    let tight = TraceLimits {
        max_file_bytes: 1 << 20,
        max_chunk_bytes: 4096,
        max_kernels: 2,
        max_warps: 24,
        max_ops_per_warp: 24,
        max_name_bytes: 4,
    };
    let (mut ok, mut errors) = (0u32, [0u32; 4]);
    for round in 0..600 {
        // The two-chunk seed costs ~30 small ones to decode in tiny
        // reads, so it gets one round in 40.
        let base = if round % 40 == 0 {
            &seeds[0]
        } else {
            &seeds[1 + round % (seeds.len() - 1)]
        };
        // The first rounds decode every seed unmutated.
        let (input, limits) = if round < seeds.len() {
            (base.clone(), TraceLimits::default())
        } else if rng.gen_bool(0.2) {
            (mutate(&mut rng, base), tight)
        } else {
            (mutate(&mut rng, base), TraceLimits::default())
        };
        match check(&input, limits, &mut rng) {
            Ok(()) => ok += 1,
            Err(e) => {
                assert!(!e.to_string().is_empty());
                errors[match e {
                    TraceReadError::NotATrace => 0,
                    TraceReadError::UnsupportedVersion(_) => 1,
                    TraceReadError::TooLarge(_) => 2,
                    TraceReadError::Corrupt(_) => 3,
                    TraceReadError::Io(e) => panic!("in-memory input gave an I/O error: {e}"),
                }] += 1;
            }
        }
    }
    // The mutations must reach the decoder's checks, not only the
    // checksum: limits and structural corruption both fire, and some
    // mutations (a repaired flip in an address delta) still decode.
    assert!(ok >= seeds.len() as u32, "{ok} decoded");
    assert!(errors[2] > 0 && errors[3] > 0, "errors by class {errors:?}");
}
