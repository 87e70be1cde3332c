//! Streaming, bounded-memory trace decoding.
//!
//! [`TraceReader`] iterates a trace file warp by warp without ever holding
//! the whole file in memory: frames are pulled off a small rolling buffer,
//! and each payload is checksummed before a single field of it is decoded.
//! Peak buffer memory is therefore bounded by the chunk size (plus one
//! refill block), not the trace size — the property the multi-MB
//! bounded-memory test asserts via [`TraceStats::peak_buffer_bytes`].

use std::io::Read;

use crate::op::Op;

use super::wire::{self, ByteGet, FnvSink, SliceReader, MAGIC, VERSION};
use super::{
    KernelMeta, TraceLimits, TraceReadError, TraceStats, TracedWarp, FRAME_CHUNK, FRAME_END,
    FRAME_HEADER,
};

/// Size of the rolling input buffer: the most one refill reads.
const FILL_BLOCK: usize = 64 * 1024;

/// A rolling-buffer byte source over any [`Read`], enforcing a total-size
/// limit. The buffer is allocated once; unread bytes are compacted to its
/// front before a refill, so a source that returns a few bytes per read
/// costs a few bytes of copying, never a fresh block.
struct ByteSource<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Unread bytes are `buf[pos..end]`.
    pos: usize,
    end: usize,
    /// Total bytes fetched from `inner`.
    fetched: u64,
    max_bytes: u64,
    eof: bool,
}

impl<R: Read> ByteSource<R> {
    fn new(inner: R, max_bytes: u64) -> Self {
        Self {
            inner,
            buf: vec![0; FILL_BLOCK],
            pos: 0,
            end: 0,
            fetched: 0,
            max_bytes,
            eof: false,
        }
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Ensures at least `need` (at most [`FILL_BLOCK`]) unread bytes are
    /// buffered, or EOF was hit.
    fn fill(&mut self, need: usize) -> Result<(), TraceReadError> {
        debug_assert!(need <= FILL_BLOCK);
        if self.remaining() >= need {
            return Ok(());
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < need && !self.eof {
            let n = match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceReadError::Io(e)),
            };
            self.end += n;
            self.eof = n == 0;
            self.fetched += n as u64;
            if self.fetched > self.max_bytes {
                return Err(TraceReadError::TooLarge(format!(
                    "trace exceeds max_file_bytes = {}",
                    self.max_bytes
                )));
            }
        }
        Ok(())
    }

    /// True when every buffered byte is consumed and the input is at EOF.
    fn at_eof(&mut self) -> Result<bool, TraceReadError> {
        self.fill(1)?;
        Ok(self.remaining() == 0)
    }

    /// Reads exactly `len` bytes into `out` (cleared first).
    fn take_into(&mut self, len: usize, out: &mut Vec<u8>) -> Result<(), TraceReadError> {
        out.clear();
        // Incremental copy: never preallocate `len` up front, so a hostile
        // length prefix on a tiny file cannot trigger a huge allocation.
        let mut left = len;
        while left > 0 {
            self.fill(left.min(FILL_BLOCK))?;
            let have = self.remaining().min(left);
            if have == 0 {
                return Err(TraceReadError::corrupt("unexpected end of trace"));
            }
            out.extend_from_slice(&self.buf[self.pos..self.pos + have]);
            self.pos += have;
            left -= have;
        }
        Ok(())
    }
}

impl<R: Read> ByteGet for ByteSource<R> {
    fn get_u8(&mut self) -> Result<u8, TraceReadError> {
        self.fill(1)?;
        if self.remaining() == 0 {
            return Err(TraceReadError::corrupt("unexpected end of trace"));
        }
        self.pos += 1;
        Ok(self.buf[self.pos - 1])
    }
}

/// Iterates a trace file warp by warp, in CTA-major kernel order, with
/// bounded memory.
///
/// The header frame is read on open, so [`TraceReader::name`] and
/// [`TraceReader::kernels`] are known before the first warp. After the
/// final [`TraceReader::next_warp`] returns `Ok(None)`,
/// [`TraceReader::stats`] reports totals, the content-addressed
/// [semantic hash](super::semantic_hash_of), and peak buffer occupancy.
pub struct TraceReader<R: Read> {
    src: ByteSource<R>,
    limits: TraceLimits,
    name: String,
    kernels: Vec<KernelMeta>,
    /// Next warp to yield: kernel index and CTA-major warp index within it.
    cursor_kernel: usize,
    cursor_warp: u64,
    /// Total warps of the kernel under the cursor.
    kernel_warps: u64,
    // Frame state: current chunk payload and decode position.
    chunk: Vec<u8>,
    chunk_pos: usize,
    chunk_warps_left: u64,
    peak_chunk: usize,
    // Accumulators.
    hash: FnvSink,
    total_warps: u64,
    total_ops: u64,
    total_warp_instrs: u64,
    stats: Option<TraceStats>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace with default [`TraceLimits`].
    ///
    /// # Errors
    ///
    /// Fails fast on a wrong magic ([`TraceReadError::NotATrace`]), an
    /// unknown version ([`TraceReadError::UnsupportedVersion`]), or a
    /// corrupt/oversized preamble.
    pub fn new(input: R) -> Result<Self, TraceReadError> {
        Self::with_limits(input, TraceLimits::default())
    }

    /// Opens a trace with explicit limits.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::new`].
    pub fn with_limits(input: R, limits: TraceLimits) -> Result<Self, TraceReadError> {
        // A preamble cut short means "this is not one of our files", but
        // I/O and limit errors keep their own class.
        fn eof_means_not_a_trace(e: TraceReadError) -> TraceReadError {
            match e {
                TraceReadError::Corrupt(_) => TraceReadError::NotATrace,
                other => other,
            }
        }
        let mut src = ByteSource::new(input, limits.max_file_bytes);
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = src.get_u8().map_err(eof_means_not_a_trace)?;
        }
        if &magic != MAGIC {
            return Err(TraceReadError::NotATrace);
        }
        let version = src.get_u8().map_err(eof_means_not_a_trace)?;
        if version != VERSION {
            return Err(TraceReadError::UnsupportedVersion(version));
        }
        let mut rd = Self {
            src,
            limits,
            name: String::new(),
            kernels: Vec::new(),
            cursor_kernel: 0,
            cursor_warp: 0,
            kernel_warps: 0,
            chunk: Vec::new(),
            chunk_pos: 0,
            chunk_warps_left: 0,
            peak_chunk: 0,
            hash: FnvSink::new(),
            total_warps: 0,
            total_ops: 0,
            total_warp_instrs: 0,
            stats: None,
        };
        rd.read_header()?;
        wire::put_varint(&mut rd.hash, rd.kernels.len() as u64);
        Ok(rd)
    }

    /// Reads one frame into `self.chunk`, verifying length and checksum.
    /// Returns the frame kind.
    fn read_frame(&mut self) -> Result<u8, TraceReadError> {
        let kind = self.src.get_u8()?;
        let len = wire::get_varint(&mut self.src)?;
        if len > self.limits.max_chunk_bytes {
            return Err(TraceReadError::TooLarge(format!(
                "frame payload of {len} bytes exceeds max_chunk_bytes = {}",
                self.limits.max_chunk_bytes
            )));
        }
        let mut payload = std::mem::take(&mut self.chunk);
        self.src.take_into(len as usize, &mut payload)?;
        let mut sum = [0u8; 8];
        for slot in &mut sum {
            *slot = self.src.get_u8()?;
        }
        if wire::fnv1a(&payload) != u64::from_le_bytes(sum) {
            return Err(TraceReadError::corrupt("frame checksum mismatch"));
        }
        self.peak_chunk = self.peak_chunk.max(payload.len());
        self.chunk = payload;
        self.chunk_pos = 0;
        Ok(kind)
    }

    /// Reads the header frame: the workload name and every kernel's
    /// grid, each validated against the limits before the next is read.
    fn read_header(&mut self) -> Result<(), TraceReadError> {
        if self.read_frame()? != FRAME_HEADER {
            return Err(TraceReadError::corrupt("first frame is not a header"));
        }
        let chunk = std::mem::take(&mut self.chunk);
        let mut r = SliceReader::new(&chunk);
        self.name = wire::get_string(&mut r, &self.limits)?;
        let n = wire::get_varint(&mut r)?;
        if n > self.limits.max_kernels {
            return Err(TraceReadError::TooLarge(format!(
                "trace declares {n} kernels, limit is {}",
                self.limits.max_kernels
            )));
        }
        let mut declared_warps = 0u64;
        for _ in 0..n {
            let name = wire::get_string(&mut r, &self.limits)?;
            let n_ctas = u32::try_from(wire::get_varint(&mut r)?)
                .map_err(|_| TraceReadError::corrupt("CTA count exceeds u32"))?;
            let threads_per_cta = u32::try_from(wire::get_varint(&mut r)?)
                .map_err(|_| TraceReadError::corrupt("thread count exceeds u32"))?;
            if n_ctas == 0 {
                return Err(TraceReadError::corrupt("kernel declares zero CTAs"));
            }
            if threads_per_cta == 0 || threads_per_cta > 1024 {
                return Err(TraceReadError::corrupt(format!(
                    "kernel declares {threads_per_cta} threads per CTA (must be 1..=1024)"
                )));
            }
            let meta = KernelMeta {
                name,
                n_ctas,
                threads_per_cta,
            };
            declared_warps += u64::from(n_ctas) * u64::from(meta.warps_per_cta());
            if declared_warps > self.limits.max_warps {
                return Err(TraceReadError::TooLarge(format!(
                    "trace declares more than {} warps",
                    self.limits.max_warps
                )));
            }
            self.kernels.push(meta);
        }
        if r.remaining() != 0 {
            return Err(TraceReadError::corrupt("trailing bytes in header frame"));
        }
        self.chunk = chunk;
        Ok(())
    }

    /// Loads the next chunk frame and validates its position against the
    /// cursor: chunks must cover each kernel's warps contiguously,
    /// CTA-major, and never span kernels.
    fn load_chunk(&mut self) -> Result<(), TraceReadError> {
        if self.read_frame()? != FRAME_CHUNK {
            return Err(TraceReadError::corrupt("expected a warp-chunk frame"));
        }
        let chunk = std::mem::take(&mut self.chunk);
        let (kernel_idx, first_warp, n_warps, pos) = {
            let mut r = SliceReader::new(&chunk);
            let k = wire::get_varint(&mut r)?;
            let f = wire::get_varint(&mut r)?;
            let n = wire::get_varint(&mut r)?;
            (k, f, n, r.pos)
        };
        self.chunk = chunk;
        self.chunk_pos = pos;
        if kernel_idx != self.cursor_kernel as u64 || first_warp != self.cursor_warp {
            return Err(TraceReadError::corrupt(format!(
                "chunk out of order: covers kernel {kernel_idx} warp {first_warp}, \
                 expected kernel {} warp {}",
                self.cursor_kernel, self.cursor_warp
            )));
        }
        if n_warps == 0 || n_warps > self.kernel_warps - self.cursor_warp {
            return Err(TraceReadError::corrupt(format!(
                "chunk declares {n_warps} warps, kernel has {} left",
                self.kernel_warps - self.cursor_warp
            )));
        }
        self.chunk_warps_left = n_warps;
        Ok(())
    }

    /// Verifies the end-of-trace frame against the accumulated totals.
    fn read_end(&mut self) -> Result<(), TraceReadError> {
        if self.read_frame()? != FRAME_END {
            return Err(TraceReadError::corrupt("expected the end-of-trace frame"));
        }
        let chunk = std::mem::take(&mut self.chunk);
        let mut r = SliceReader::new(&chunk);
        let warps = wire::get_varint(&mut r)?;
        let ops = wire::get_varint(&mut r)?;
        let instrs = wire::get_varint(&mut r)?;
        let trailing = r.remaining();
        self.chunk = chunk;
        if trailing != 0 {
            return Err(TraceReadError::corrupt("trailing bytes in end frame"));
        }
        if warps != self.total_warps || ops != self.total_ops || instrs != self.total_warp_instrs {
            return Err(TraceReadError::corrupt(
                "end-frame totals disagree with trace body",
            ));
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceReadError> {
        self.read_end()?;
        if !self.src.at_eof()? {
            return Err(TraceReadError::corrupt("trailing bytes after trace"));
        }
        self.stats = Some(TraceStats {
            total_warps: self.total_warps,
            total_ops: self.total_ops,
            total_warp_instrs: self.total_warp_instrs,
            semantic_hash: self.hash.0,
            bytes_read: self.src.fetched,
            peak_buffer_bytes: self.src.buf.len() + self.peak_chunk,
        });
        Ok(())
    }

    /// Yields the next warp, or `Ok(None)` once the trace is fully (and
    /// validly) consumed.
    ///
    /// # Errors
    ///
    /// Any corruption, truncation, or limit violation. The reader is not
    /// resumable after an error.
    pub fn next_warp(&mut self) -> Result<Option<TracedWarp>, TraceReadError> {
        if self.stats.is_some() {
            return Ok(None);
        }
        // Skip past (hypothetical) zero-warp kernels and detect the end.
        loop {
            if self.cursor_kernel == self.kernels.len() {
                self.finish()?;
                return Ok(None);
            }
            if self.cursor_warp == 0 {
                // Entering a kernel: fold its grid into the semantic hash.
                let meta = &self.kernels[self.cursor_kernel];
                self.kernel_warps = u64::from(meta.n_ctas) * u64::from(meta.warps_per_cta());
                let (ctas, threads) = (meta.n_ctas, meta.threads_per_cta);
                wire::put_varint(&mut self.hash, u64::from(ctas));
                wire::put_varint(&mut self.hash, u64::from(threads));
            }
            if self.cursor_warp < self.kernel_warps {
                break;
            }
            self.cursor_kernel += 1;
            self.cursor_warp = 0;
        }
        if self.chunk_warps_left == 0 {
            self.load_chunk()?;
        }
        let mut r = SliceReader {
            buf: &self.chunk,
            pos: self.chunk_pos,
        };
        let ops = wire::decode_ops(&mut r, &self.limits)?;
        self.chunk_pos = r.pos;
        self.chunk_warps_left -= 1;
        if self.chunk_warps_left == 0 && self.chunk_pos != self.chunk.len() {
            return Err(TraceReadError::corrupt("trailing bytes in warp chunk"));
        }
        wire::encode_ops(&mut self.hash, &ops);
        self.total_warps += 1;
        self.total_ops += ops.len() as u64;
        self.total_warp_instrs += ops.iter().map(Op::warp_instrs).sum::<u64>();
        let meta = &self.kernels[self.cursor_kernel];
        let wpc = u64::from(meta.warps_per_cta());
        let warp = TracedWarp {
            kernel: self.cursor_kernel,
            cta: (self.cursor_warp / wpc) as u32,
            warp: (self.cursor_warp % wpc) as u32,
            ops,
        };
        self.cursor_warp += 1;
        if self.cursor_warp == self.kernel_warps {
            self.cursor_kernel += 1;
            self.cursor_warp = 0;
        }
        Ok(Some(warp))
    }

    /// Workload name recorded in the trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of kernels the trace declares.
    pub fn n_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Every kernel's metadata, as declared by the header frame.
    pub fn kernels(&self) -> &[KernelMeta] {
        &self.kernels
    }

    /// Totals, semantic hash, and memory gauges — available only after the
    /// whole trace was consumed (`next_warp` returned `Ok(None)`).
    pub fn stats(&self) -> Option<&TraceStats> {
        self.stats.as_ref()
    }
}
