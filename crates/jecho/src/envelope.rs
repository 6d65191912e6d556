//! Wire-level envelopes exchanged between sources and subscribers.
//!
//! JECho delivers *modulated events*: the continuation produced by the
//! subscriber's modulator inside the source, plus piggy-backed profiling
//! samples. Control traffic flows the other way: profiling feedback from
//! the demodulator side and plan updates from the Reconfiguration Unit.
//!
//! Framing is supervised-transport grade: every frame carries a CRC32
//! checksum over its header and body, decoding is total (structured
//! [`IrError::Marshal`] errors, never a panic, never an attacker-sized
//! allocation), and the frame set includes heartbeats and acknowledgements
//! so a [`Supervisor`](crate::supervisor::Supervisor) can detect dead
//! peers and retransmit the unacknowledged window.
//!
//! Encoding is zero-copy for large continuation payloads: a frame renders
//! to an [`EncodedFrame`] — an ordered list of wire segments where small
//! fields inline into one contiguous buffer and payloads of at least
//! [`ZERO_COPY_MIN_BYTES`] ride as refcounted borrows of the packed
//! [`Marshalled`] buffer. Byte-stream transports write the segments with
//! one vectored syscall ([`EncodedFrame::write_to`]); the simulated wire
//! flattens them deterministically ([`EncodedFrame::to_vec`]). Either way
//! the byte stream is bit-identical to the single-buffer reference
//! encoder ([`Frame::encode_via_copy`]), so decode, CRC framing,
//! retransmission, and chaos determinism are all unchanged. The complete
//! byte layout and the borrowed-buffer ownership rules live in `WIRE.md`.

use std::io::IoSlice;
use std::ops::Range;

use bytes::{Buf, BufMut, BytesMut};
use mpart::continuation::ContinuationMessage;
use mpart::profile::PseSample;
use mpart::PseId;
use mpart_ir::marshal::Marshalled;
use mpart_ir::IrError;

/// The refcounted buffer type of the wire layer: what
/// [`Frame::decode_owned`] takes, what [`EncodedFrame::segments`] are.
pub use bytes::Bytes;

/// Wire cost (bytes) charged per piggy-backed profiling sample.
pub const SAMPLE_WIRE_BYTES: usize = 12;

/// Hard ceiling on a frame body. Applied symmetrically: encoders refuse to
/// produce larger frames and decoders refuse to allocate for them, so a
/// corrupted or hostile length prefix can never OOM the receiver.
pub const MAX_FRAME_SIZE: usize = 64 * 1024 * 1024;

/// Bytes of framing ahead of the body: `[kind u8][len u32][crc u32]`.
pub const FRAME_HEADER_BYTES: usize = 9;

/// What [`Frame::read_from`] reserves for a body before any of it has
/// arrived. The header's length is only a claim until the bytes back it:
/// a body up to this size is read into one exact allocation, a larger one
/// grows as it arrives, so nine garbage bytes cost a receiver at most this
/// much address space (and no page of it is touched).
const READ_RESERVE_BYTES: usize = 1024 * 1024;

/// Payloads of at least this many bytes are carried as borrowed refcounted
/// [`Bytes`] segments in an [`EncodedFrame`]; smaller payloads are copied
/// into the frame's inline buffer. The threshold trades one extra wire
/// segment (a longer iovec, a touch more per-segment bookkeeping) against
/// a memcpy of the payload: around 1 KiB the memcpy starts to dominate.
pub const ZERO_COPY_MIN_BYTES: usize = 1024;

/// Slicing-by-8 lookup tables for [`crc32_table`]. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table; table `j` advances a byte through `j`
/// additional zero bytes, letting the hot loop fold 8 input bytes per
/// iteration.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected) over a sequence of byte slices.
///
/// Each slice goes through `crc32_update`: a carry-less-multiply fold
/// where the CPU has one, the slicing-by-8 table walk otherwise. Both
/// produce values identical to the bitwise [`crc32_reference`], which
/// pins them in tests. Streaming across slice boundaries:
/// `crc32(&[a, b]) == crc32(&[ab])`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        crc = crc32_update(crc, part);
    }
    !crc
}

/// Advances the running (pre-inversion) CRC register over `bytes`.
/// Slices of at least `clmul::MIN_BYTES` take the fold path when the CPU
/// has `pclmulqdq` and `sse4.1`; everything else walks the tables.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_BYTES {
        if let Some(crc) = clmul::update(crc, bytes) {
            return crc;
        }
    }
    crc32_table(crc, bytes)
}

/// The slicing-by-8 table walk: 8 input bytes per iteration, then one
/// byte at a time. The fallback of `crc32_update` and the fold's tail.
fn crc32_table(mut crc: u32, mut bytes: &[u8]) -> u32 {
    while let [b0, b1, b2, b3, b4, b5, b6, b7, rest @ ..] = bytes {
        let lo = u32::from_le_bytes([*b0, *b1, *b2, *b3]) ^ crc;
        let hi = u32::from_le_bytes([*b4, *b5, *b6, *b7]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
        bytes = rest;
    }
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// The fold path: the same reflected `0xEDB88320` CRC computed 64 bytes
/// per step with carry-less multiplies (Intel, "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", 2009; the constants
/// are the ones Linux's `crc32-pclmul` and the `crc32fast` crate use).
/// The tree's only `unsafe`: the call after feature detection and the
/// unaligned 16-byte loads.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest slice `crc32_update` sends here: the 64 bytes that fill
    /// the fold's four lanes. It already wins at that length (~8 ns
    /// against the table's ~31 ns at 64 B, ~11 against ~66 ns at 112 B,
    /// on a 2-vCPU Xeon VM); a shorter slice would be all tail, so the
    /// table walks it.
    pub(super) const MIN_BYTES: usize = 64;

    // Folding constants for the bit-reflected domain: x^(4·128±32) mod P
    // folds one 128-bit lane across 512 bits, x^(128±32) mod P across 128,
    // x^64 mod P takes 96 bits to 64; then P(x) and μ = x^64 / P(x) for
    // the Barrett reduction to 32 bits.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances the running CRC register over `bytes` on the fold path, or
    /// returns `None` when this CPU lacks `pclmulqdq` or `sse4.1`.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<u32> {
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: `fold` enables exactly `pclmulqdq` and `sse4.1`, and
            // both were detected on the running CPU just above.
            Some(unsafe { fold(crc, bytes) })
        } else {
            None
        }
    }

    /// Four 128-bit lanes fold 64 bytes per step, then merge into one lane
    /// that folds the remaining 16-byte blocks; 128 bits reduce to 64, a
    /// Barrett reduction takes them to the 32-bit register, and the last
    /// < 16 bytes go through the table. Slices under 64 bytes are all tail.
    /// Its one caller, `update`, runs it only after detecting both features.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let [b0, b1, b2, b3, rest @ ..] = blocks else {
            return super::crc32_table(crc, bytes);
        };
        let load = |block: &[u8; 16]| {
            // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128`
            // has no alignment requirement.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        };
        // `acc · x^n mod P ⊕ next`: the high and low halves of `acc`, each
        // multiplied by its constant, xored into the block n bits on.
        let fold_into = |acc: __m128i, next: __m128i, keys: __m128i| {
            let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
            let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(next, lo), hi)
        };

        // The running register enters as the first 32 bits of input.
        let first = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(crc as i32));
        let mut lanes = [first, load(b1), load(b2), load(b3)];
        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold_into(fold_into(fold_into(l0, l1, k3k4), l2, k3k4), l3, k3k4);
        for block in singles {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is bits 32..64 of R ⊕ T2.
        let poly_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_table(crc, tail)
    }
}

/// Bit-at-a-time CRC32 — the implementation [`crc32`] replaced. Kept as
/// the oracle that pins the fold and table paths (identical output on all
/// inputs) and as the checksum of the legacy single-buffer encoder
/// [`Frame::encode_via_copy`], so the `marshal` bench baseline measures
/// exactly the pre-zero-copy hot path.
pub fn crc32_reference(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        for &byte in *part {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !crc
}

/// Writes every byte of `bufs` to `writer` using vectored I/O.
///
/// One `write_vectored` call per loop iteration; partial writes advance
/// through the buffer list (an `IoSlice` mid-buffer offset included),
/// `Interrupted` retries, and a zero-length write is reported as
/// [`std::io::ErrorKind::WriteZero`]. Shared by [`EncodedFrame::write_to`]
/// and the node control protocol's request writer.
pub fn write_all_vectored(writer: &mut impl std::io::Write, bufs: &[&[u8]]) -> std::io::Result<()> {
    let mut seg = 0usize;
    let mut offset = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(bufs.len());
    // Skip leading empty buffers (writers may treat an all-empty iovec as
    // a zero-length write, which we must not confuse with WriteZero).
    while seg < bufs.len() && bufs[seg].is_empty() {
        seg += 1;
    }
    while seg < bufs.len() {
        slices.clear();
        slices.push(IoSlice::new(&bufs[seg][offset..]));
        slices.extend(bufs[seg + 1..].iter().filter(|b| !b.is_empty()).map(|b| IoSlice::new(b)));
        let mut n = match writer.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while seg < bufs.len() {
            let remaining = bufs[seg].len() - offset;
            if n < remaining {
                offset += n;
                break;
            }
            n -= remaining;
            offset = 0;
            seg += 1;
        }
    }
    Ok(())
}

/// The wire form of one [`Frame`]: an ordered list of byte segments whose
/// concatenation is exactly the frame's encoding (`[kind][len][crc][body]`).
///
/// Segment 0 always begins with the frame header; small fields are packed
/// into shared inline segments while payloads of at least
/// [`ZERO_COPY_MIN_BYTES`] are refcounted borrows of the sender's
/// [`Marshalled`] buffer — no copy is made, and the borrow keeps the
/// allocation alive for as long as the `EncodedFrame` does (retransmission
/// windows hold `EncodedFrame`s safely; see WIRE.md §ownership).
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    segments: Vec<Bytes>,
    len: usize,
    copied_payload: u64,
    borrowed_payload: u64,
}

impl EncodedFrame {
    /// Total encoded size in bytes (header + body).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame encodes to zero bytes (never, in practice: the
    /// header alone is [`FRAME_HEADER_BYTES`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wire segments, in transmission order.
    pub fn segments(&self) -> &[Bytes] {
        &self.segments
    }

    /// Payload bytes that were memcpy'd into the inline segment (below
    /// the [`ZERO_COPY_MIN_BYTES`] threshold). Feeds
    /// `marshal_copied_bytes_total`.
    pub fn copied_payload_bytes(&self) -> u64 {
        self.copied_payload
    }

    /// Payload bytes carried as refcounted borrows (at or above the
    /// threshold). Feeds `marshal_borrowed_bytes_total`.
    pub fn borrowed_payload_bytes(&self) -> u64 {
        self.borrowed_payload
    }

    /// Flattens the segments into one contiguous buffer. Deterministic —
    /// the simulated wire uses this so fault injection (corruption offsets,
    /// drop decisions on encoded length) behaves identically to the
    /// pre-zero-copy encoder.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
        out
    }

    /// Writes all segments to `writer` with one gathered
    /// (`write_vectored`) syscall in the common case; partial writes are
    /// resumed mid-segment.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on I/O failures.
    pub fn write_to(&self, writer: &mut impl std::io::Write) -> Result<(), IrError> {
        let bufs: Vec<&[u8]> = self.segments.iter().map(|s| s.as_ref()).collect();
        write_all_vectored(writer, &bufs).map_err(|e| IrError::Marshal(format!("frame write: {e}")))
    }
}

/// Accumulates one frame as interleaved inline bytes and borrowed payload
/// segments, then seals the header (length + CRC) over the whole sequence.
///
/// All inline bytes land in a single `BytesMut` (with a header placeholder
/// at the front); borrowed payloads split the inline run, so the final
/// segment list preserves wire order while inline segments are cheap
/// sub-slices of one allocation.
struct FrameBuilder {
    inline: BytesMut,
    parts: Vec<BodyPart>,
    run_start: usize,
    copied_payload: u64,
    borrowed_payload: u64,
}

enum BodyPart {
    /// A run of inline bytes, as a range of the builder's `inline` buffer.
    Inline(Range<usize>),
    /// A refcounted borrow of a payload buffer.
    Borrowed(Bytes),
}

impl FrameBuilder {
    fn new() -> Self {
        let mut inline = BytesMut::with_capacity(256);
        inline.resize(FRAME_HEADER_BYTES, 0);
        FrameBuilder {
            inline,
            parts: Vec::new(),
            run_start: FRAME_HEADER_BYTES,
            copied_payload: 0,
            borrowed_payload: 0,
        }
    }

    fn put_u8(&mut self, v: u8) {
        self.inline.put_u8(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.inline.put_u32(v);
    }

    fn put_u64(&mut self, v: u64) {
        self.inline.put_u64(v);
    }

    /// Appends a continuation payload: inlined below
    /// [`ZERO_COPY_MIN_BYTES`], borrowed (refcount bump, no copy) at or
    /// above it.
    fn put_payload(&mut self, payload: &Marshalled) {
        let bytes = payload.shared_bytes();
        if bytes.len() < ZERO_COPY_MIN_BYTES {
            self.copied_payload += bytes.len() as u64;
            self.inline.put_slice(&bytes);
        } else {
            self.borrowed_payload += bytes.len() as u64;
            self.close_run();
            self.parts.push(BodyPart::Borrowed(bytes));
        }
    }

    /// Closes the current inline run, if non-empty, into `parts`.
    fn close_run(&mut self) {
        if self.inline.len() > self.run_start {
            self.parts.push(BodyPart::Inline(self.run_start..self.inline.len()));
        }
        self.run_start = self.inline.len();
    }

    /// Seals the header and produces the segment list.
    fn finish(mut self, kind: u8) -> Result<EncodedFrame, IrError> {
        self.close_run();
        let inline_body = self.inline.len() - FRAME_HEADER_BYTES;
        let borrowed: usize = self
            .parts
            .iter()
            .map(|p| match p {
                BodyPart::Borrowed(b) => b.len(),
                BodyPart::Inline(_) => 0,
            })
            .sum();
        let body_len = inline_body + borrowed;
        if body_len > MAX_FRAME_SIZE {
            return Err(IrError::Marshal(format!(
                "frame body exceeds MAX_FRAME_SIZE: {body_len} > {MAX_FRAME_SIZE}"
            )));
        }
        let len_be = (body_len as u32).to_be_bytes();
        // CRC covers [kind][len][body] in wire order; the body parts are
        // streamed through the running CRC without flattening.
        let mut crc = 0xFFFF_FFFFu32;
        crc = crc32_update(crc, &[kind]);
        crc = crc32_update(crc, &len_be);
        for part in &self.parts {
            crc = crc32_update(
                crc,
                match part {
                    BodyPart::Inline(r) => &self.inline[r.clone()],
                    BodyPart::Borrowed(b) => b,
                },
            );
        }
        let crc_be = (!crc).to_be_bytes();
        self.inline[0] = kind;
        self.inline[1..5].copy_from_slice(&len_be);
        self.inline[5..9].copy_from_slice(&crc_be);
        let frozen = self.inline.freeze();
        // Assemble wire-order segments, merging each inline run into the
        // preceding one when nothing borrowed came between them (runs are
        // consecutive ranges of the same buffer, so merging is just range
        // extension). Segment 0 therefore always starts with the header.
        let mut segments = Vec::with_capacity(self.parts.len() + 1);
        let mut open: Option<Range<usize>> = Some(0..FRAME_HEADER_BYTES);
        for part in self.parts {
            match part {
                BodyPart::Inline(r) => match open.as_mut() {
                    Some(range) => range.end = r.end,
                    None => open = Some(r),
                },
                BodyPart::Borrowed(b) => {
                    if let Some(range) = open.take() {
                        segments.push(frozen.slice(range));
                    }
                    segments.push(b);
                }
            }
        }
        if let Some(range) = open {
            segments.push(frozen.slice(range));
        }
        Ok(EncodedFrame {
            segments,
            len: FRAME_HEADER_BYTES + body_len,
            copied_payload: self.copied_payload,
            borrowed_payload: self.borrowed_payload,
        })
    }
}

/// A modulated event on the wire: the remote continuation plus the
/// modulator's profiling samples for this message.
#[derive(Debug, Clone)]
pub struct ModulatedEvent {
    /// Monotone per-source message number.
    pub seq: u64,
    /// The remote continuation (carries the plan epoch it was modulated
    /// under).
    pub continuation: ContinuationMessage,
    /// Modulator-side profiling samples (empty when profiling flags are
    /// off).
    pub samples: Vec<PseSample>,
}

impl ModulatedEvent {
    /// Total bytes on the wire: continuation plus sample piggyback.
    pub fn wire_size(&self) -> usize {
        self.continuation.wire_size() + self.samples.len() * SAMPLE_WIRE_BYTES
    }
}

/// A plan update travelling from the Reconfiguration Unit to the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEnvelope {
    /// PSE ids to activate (all others cleared).
    pub active: Vec<PseId>,
    /// Sequence number of the reconfiguration (monotone).
    pub revision: u64,
    /// The plan generation assigned by the receiver's handler (stamped on
    /// subsequent continuations so the receiver can age out old plans).
    pub epoch: u64,
    /// Highest contiguous event `seq` the receiver has demodulated —
    /// acknowledgement piggy-backed on the control channel, letting the
    /// sender's supervisor trim its retransmission window without
    /// dedicated ack traffic.
    pub ack: u64,
}

/// A frame on a byte-stream transport (e.g. TCP).
#[derive(Debug, Clone)]
pub enum Frame {
    /// A modulated event, sender → receiver, with the sender-side elapsed
    /// time (nanoseconds) piggy-backed for the exec-time profiler.
    Event {
        /// The modulated event.
        event: ModulatedEvent,
        /// Sender-side elapsed time for the modulator run, in nanoseconds.
        t_mod_nanos: u64,
    },
    /// A plan update, receiver → sender.
    Plan(PlanEnvelope),
    /// Sender liveness probe carrying the highest event `seq` sent so far.
    Heartbeat {
        /// Highest `seq` the sender has transmitted.
        seq: u64,
    },
    /// Standalone acknowledgement, receiver → sender: highest contiguous
    /// event `seq` demodulated.
    Ack {
        /// Highest contiguous `seq` received.
        ack: u64,
    },
    /// Orderly shutdown.
    Shutdown,
    /// Several modulated events coalesced into one frame (one header, one
    /// checksum), each with its own `t_mod_nanos`. Events keep their
    /// per-source order inside the batch; a lost or corrupted batch frame
    /// loses all of its events together, so retransmission and ack
    /// semantics are unchanged — the unit of loss is the frame.
    Batch {
        /// `(event, t_mod_nanos)` pairs in send order.
        events: Vec<(ModulatedEvent, u64)>,
    },
    /// Acknowledgement piggy-backed on [`Frame::Batch`] member boundaries,
    /// receiver → sender: one watermark per demodulated batch member,
    /// coalesced into a single frame instead of one [`Frame::Ack`] per
    /// member. The sender folds the watermarks with `max`, so the effect
    /// on the retransmission window is identical to the per-member acks
    /// it replaces — the wire just carries one header and checksum.
    BatchAck {
        /// Highest-contiguous-`seq` watermarks, in demodulation order.
        watermarks: Vec<u64>,
    },
}

const FRAME_EVENT: u8 = 0;
const FRAME_PLAN: u8 = 1;
const FRAME_SHUTDOWN: u8 = 2;
const FRAME_HEARTBEAT: u8 = 3;
const FRAME_ACK: u8 = 4;
const FRAME_BATCH: u8 = 5;
const FRAME_BATCH_ACK: u8 = 6;

/// Minimum encoded size of one event body (all fixed-width fields, empty
/// payload, zero samples); used to reject crafted batch counts before
/// allocating.
const EVENT_BODY_MIN_BYTES: usize = 8 + 8 + 8 + 4 + 8 + 4 + 4;

impl Frame {
    /// Encodes the frame into scatter-gather wire segments without copying
    /// payloads at or above [`ZERO_COPY_MIN_BYTES`]. The segments
    /// concatenate to exactly the bytes [`encode`](Self::encode) would
    /// produce.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] when the body exceeds
    /// [`MAX_FRAME_SIZE`] — write paths surface it through the session
    /// failure domain (the envelope dead-letters; the connection
    /// survives).
    pub fn try_encode_frame(&self) -> Result<EncodedFrame, IrError> {
        let mut b = FrameBuilder::new();
        let kind = match self {
            Frame::Event { event: e, t_mod_nanos } => {
                put_event_parts(&mut b, e, *t_mod_nanos);
                FRAME_EVENT
            }
            Frame::Batch { events } => {
                b.put_u32(events.len() as u32);
                for (e, t_mod_nanos) in events {
                    put_event_parts(&mut b, e, *t_mod_nanos);
                }
                FRAME_BATCH
            }
            Frame::Plan(p) => {
                b.put_u64(p.revision);
                b.put_u64(p.epoch);
                b.put_u64(p.ack);
                b.put_u32(p.active.len() as u32);
                for &pse in &p.active {
                    b.put_u32(pse as u32);
                }
                FRAME_PLAN
            }
            Frame::Heartbeat { seq } => {
                b.put_u64(*seq);
                FRAME_HEARTBEAT
            }
            Frame::Ack { ack } => {
                b.put_u64(*ack);
                FRAME_ACK
            }
            Frame::BatchAck { watermarks } => {
                b.put_u32(watermarks.len() as u32);
                for &w in watermarks {
                    b.put_u64(w);
                }
                FRAME_BATCH_ACK
            }
            Frame::Shutdown => FRAME_SHUTDOWN,
        };
        b.finish(kind)
    }

    /// Infallible [`try_encode_frame`](Self::try_encode_frame).
    ///
    /// # Panics
    ///
    /// Panics when the body exceeds [`MAX_FRAME_SIZE`]; transports that
    /// must survive oversize envelopes use the fallible variant.
    pub fn encode_frame(&self) -> EncodedFrame {
        self.try_encode_frame().expect("frame body exceeds MAX_FRAME_SIZE")
    }

    /// Fallible contiguous encoding: [`try_encode_frame`](Self::try_encode_frame)
    /// flattened into one buffer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] when the body exceeds
    /// [`MAX_FRAME_SIZE`].
    pub fn try_encode(&self) -> Result<Vec<u8>, IrError> {
        Ok(self.try_encode_frame()?.to_vec())
    }

    /// Encodes the frame as `[kind u8][len u32][crc u32][body]`, where the
    /// checksum covers the kind, the length, and the body. Delegates to
    /// [`try_encode`](Self::try_encode).
    ///
    /// # Panics
    ///
    /// Panics when the body exceeds [`MAX_FRAME_SIZE`]; transports that
    /// must survive oversize envelopes use [`try_encode`](Self::try_encode).
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode().expect("frame body exceeds MAX_FRAME_SIZE")
    }

    /// The pre-zero-copy encoder, preserved verbatim: renders the body
    /// into one fresh buffer, then copies it again behind a header sealed
    /// with the bitwise [`crc32_reference`]. Byte-identity oracle for
    /// [`try_encode_frame`](Self::try_encode_frame) (proptests assert
    /// equality per frame kind) and the "before" baseline of the `marshal`
    /// bench. Not called on any runtime path.
    pub fn encode_via_copy(&self) -> Vec<u8> {
        let (kind, body) = self.encode_body_via_copy();
        assert!(body.len() <= MAX_FRAME_SIZE, "frame body exceeds MAX_FRAME_SIZE");
        let len = (body.len() as u32).to_be_bytes();
        let crc = crc32_reference(&[&[kind], &len, &body]).to_be_bytes();
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
        out.push(kind);
        out.extend_from_slice(&len);
        out.extend_from_slice(&crc);
        out.extend_from_slice(&body);
        out
    }

    /// Renders the frame's body bytes and kind tag by copying (the legacy
    /// path kept for [`encode_via_copy`](Self::encode_via_copy)).
    fn encode_body_via_copy(&self) -> (u8, BytesMut) {
        let mut body = BytesMut::new();
        let kind = match self {
            Frame::Event { event: e, t_mod_nanos } => {
                put_event(&mut body, e, *t_mod_nanos);
                FRAME_EVENT
            }
            Frame::Batch { events } => {
                body.put_u32(events.len() as u32);
                for (e, t_mod_nanos) in events {
                    put_event(&mut body, e, *t_mod_nanos);
                }
                FRAME_BATCH
            }
            Frame::Plan(p) => {
                body.put_u64(p.revision);
                body.put_u64(p.epoch);
                body.put_u64(p.ack);
                body.put_u32(p.active.len() as u32);
                for &pse in &p.active {
                    body.put_u32(pse as u32);
                }
                FRAME_PLAN
            }
            Frame::Heartbeat { seq } => {
                body.put_u64(*seq);
                FRAME_HEARTBEAT
            }
            Frame::Ack { ack } => {
                body.put_u64(*ack);
                FRAME_ACK
            }
            Frame::BatchAck { watermarks } => {
                body.put_u32(watermarks.len() as u32);
                for &w in watermarks {
                    body.put_u64(w);
                }
                FRAME_BATCH_ACK
            }
            Frame::Shutdown => FRAME_SHUTDOWN,
        };
        (kind, body)
    }

    /// Decodes a frame from `kind` and a borrowed, already-checksummed
    /// `body`: copies the body once and decodes the copy with
    /// [`decode_owned`](Self::decode_owned). For callers that hold the
    /// bytes in a buffer of their own (the simulated wire, tests); a byte
    /// stream uses [`read_from`](Self::read_from), which reads straight
    /// into the buffer the frame is decoded from.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on malformed frames.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Frame, IrError> {
        if body.len() > MAX_FRAME_SIZE {
            return Err(IrError::Marshal(format!("frame too large: {}", body.len())));
        }
        Frame::decode_owned(kind, Bytes::copy_from_slice(body))
    }

    /// Decodes a frame from `kind` and an already-checksummed `body` the
    /// caller gives up. Nothing is copied: every continuation payload of
    /// the decoded frame is a refcounted view into `body`'s allocation,
    /// which lives until the last of them is dropped (WIRE.md §receive-side
    /// ownership).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on malformed frames.
    pub fn decode_owned(kind: u8, body: Bytes) -> Result<Frame, IrError> {
        if body.len() > MAX_FRAME_SIZE {
            return Err(IrError::Marshal(format!("frame too large: {}", body.len())));
        }
        let mut buf = body;
        let short = || IrError::Marshal("truncated frame".into());
        let need = |buf: &Bytes, n: usize| -> Result<(), IrError> {
            if buf.remaining() < n {
                Err(IrError::Marshal("truncated frame".into()))
            } else {
                Ok(())
            }
        };
        match kind {
            FRAME_EVENT => {
                let (event, t_mod_nanos) = take_event(&mut buf)?;
                Ok(Frame::Event { event, t_mod_nanos })
            }
            FRAME_BATCH => {
                need(&buf, 4)?;
                let count = buf.get_u32() as usize;
                // Reject crafted counts before allocating.
                if count.checked_mul(EVENT_BODY_MIN_BYTES).is_none_or(|b| b > buf.remaining()) {
                    return Err(short());
                }
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    events.push(take_event(&mut buf)?);
                }
                Ok(Frame::Batch { events })
            }
            FRAME_PLAN => {
                need(&buf, 8 + 8 + 8 + 4)?;
                let revision = buf.get_u64();
                let epoch = buf.get_u64();
                let ack = buf.get_u64();
                let n = buf.get_u32() as usize;
                if n.checked_mul(4).is_none_or(|b| b > buf.remaining()) {
                    return Err(short());
                }
                let active = (0..n).map(|_| buf.get_u32() as PseId).collect();
                Ok(Frame::Plan(PlanEnvelope { active, revision, epoch, ack }))
            }
            FRAME_HEARTBEAT => {
                need(&buf, 8)?;
                Ok(Frame::Heartbeat { seq: buf.get_u64() })
            }
            FRAME_ACK => {
                need(&buf, 8)?;
                Ok(Frame::Ack { ack: buf.get_u64() })
            }
            FRAME_BATCH_ACK => {
                need(&buf, 4)?;
                let n = buf.get_u32() as usize;
                if n.checked_mul(8).is_none_or(|b| b > buf.remaining()) {
                    return Err(short());
                }
                let watermarks = (0..n).map(|_| buf.get_u64()).collect();
                Ok(Frame::BatchAck { watermarks })
            }
            FRAME_SHUTDOWN => Ok(Frame::Shutdown),
            other => Err(IrError::Marshal(format!("unknown frame type {other}"))),
        }
    }

    /// Decodes one whole frame (header, checksum, body) from the front of
    /// `bytes`, returning the frame and how many bytes it consumed.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on truncation, an oversized length
    /// prefix, a checksum mismatch, or a malformed body.
    pub fn decode_bytes(bytes: &[u8]) -> Result<(Frame, usize), IrError> {
        let Some(header) = bytes.first_chunk() else {
            return Err(IrError::Marshal("truncated frame header".into()));
        };
        let (kind, len, crc_stated) = parse_header(header)?;
        let total = FRAME_HEADER_BYTES + len;
        if bytes.len() < total {
            return Err(IrError::Marshal("truncated frame body".into()));
        }
        let body = &bytes[FRAME_HEADER_BYTES..total];
        let crc_actual = crc32(&[&bytes[..1], &bytes[1..5], body]);
        if crc_actual != crc_stated {
            return Err(IrError::Marshal(format!(
                "frame checksum mismatch: stated {crc_stated:#010x}, computed {crc_actual:#010x}"
            )));
        }
        Ok((Frame::decode(kind, body)?, total))
    }

    /// Reads one checksummed frame from a byte stream. The body is read
    /// once, into an unzeroed buffer that becomes the [`Bytes`] the frame
    /// is decoded from ([`decode_owned`](Self::decode_owned)); the buffer
    /// is sized by the bytes that arrive, not by the header's claim alone
    /// (`READ_RESERVE_BYTES`).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on malformed frames, checksum
    /// mismatches, or I/O failures (a body cut short included).
    pub fn read_from(reader: &mut impl std::io::Read) -> Result<Frame, IrError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        reader
            .read_exact(&mut header)
            .map_err(|e| IrError::Marshal(format!("frame header: {e}")))?;
        let (kind, len, crc_stated) = parse_header(&header)?;
        let body =
            read_body(reader, len).map_err(|e| IrError::Marshal(format!("frame body: {e}")))?;
        if body.len() < len {
            return Err(IrError::Marshal(format!(
                "frame body: stream ended after {} of {len} bytes",
                body.len()
            )));
        }
        let crc_actual = crc32(&[&header[..1], &header[1..5], &body]);
        if crc_actual != crc_stated {
            return Err(IrError::Marshal(format!(
                "frame checksum mismatch: stated {crc_stated:#010x}, computed {crc_actual:#010x}"
            )));
        }
        Frame::decode_owned(kind, Bytes::from(body))
    }

    /// Writes the frame to a byte stream with one gathered vectored write
    /// (no payload flattening).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] on oversize bodies or I/O failures.
    pub fn write_to(&self, writer: &mut impl std::io::Write) -> Result<(), IrError> {
        self.try_encode_frame()?.write_to(writer)
    }
}

/// Parses a frame header — `[kind u8][len u32][crc u32]`, big-endian —
/// into the kind, the body length and the stated checksum. The one place
/// that knows the header layout: the stream reader, the slice decoder and
/// the TCP receiver's "is a whole frame buffered?" check all go through it.
///
/// # Errors
///
/// Returns [`IrError::Marshal`] when the length exceeds [`MAX_FRAME_SIZE`].
pub(crate) fn parse_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<(u8, usize, u32), IrError> {
    let [kind, l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_SIZE {
        return Err(IrError::Marshal(format!("frame too large: {len}")));
    }
    Ok((kind, len, u32::from_be_bytes([c0, c1, c2, c3])))
}

/// Reads up to `len` body bytes into a fresh buffer — fewer only when the
/// stream ends first, which the caller reports. `read_to_end` on the
/// length-limited reader fills the buffer's spare capacity directly, so no
/// byte is zeroed before it is overwritten; up to `READ_RESERVE_BYTES` the
/// capacity is exact and one allocation serves the frame for life.
fn read_body(reader: &mut impl std::io::Read, len: usize) -> std::io::Result<Vec<u8>> {
    use std::io::Read as _;
    let mut body = Vec::with_capacity(len.min(READ_RESERVE_BYTES));
    reader.by_ref().take(len as u64).read_to_end(&mut body)?;
    Ok(body)
}

/// Appends one event body (as carried by [`Frame::Event`] and repeated
/// inside [`Frame::Batch`]) to the builder, borrowing the continuation
/// payload when it clears the zero-copy threshold. Field order must stay
/// in lockstep with [`put_event`] and [`take_event`].
fn put_event_parts(b: &mut FrameBuilder, e: &ModulatedEvent, t_mod_nanos: u64) {
    b.put_u64(e.seq);
    b.put_u64(t_mod_nanos);
    b.put_u64(e.continuation.epoch);
    b.put_u32(e.continuation.pse as u32);
    b.put_u64(e.continuation.mod_work);
    b.put_u32(e.continuation.payload.wire_size() as u32);
    b.put_payload(&e.continuation.payload);
    b.put_u32(e.samples.len() as u32);
    for s in &e.samples {
        b.put_u32(s.pse as u32);
        b.put_u64(s.mod_work);
        b.put_u64(s.payload_bytes.unwrap_or(u64::MAX));
        b.put_u8(u8::from(s.was_split));
    }
}

/// Copying twin of [`put_event_parts`], used only by the legacy
/// [`Frame::encode_via_copy`] reference path.
fn put_event(body: &mut BytesMut, e: &ModulatedEvent, t_mod_nanos: u64) {
    body.put_u64(e.seq);
    body.put_u64(t_mod_nanos);
    body.put_u64(e.continuation.epoch);
    body.put_u32(e.continuation.pse as u32);
    body.put_u64(e.continuation.mod_work);
    let payload = e.continuation.payload.as_bytes();
    body.put_u32(payload.len() as u32);
    body.put_slice(payload);
    body.put_u32(e.samples.len() as u32);
    for s in &e.samples {
        body.put_u32(s.pse as u32);
        body.put_u64(s.mod_work);
        body.put_u64(s.payload_bytes.unwrap_or(u64::MAX));
        body.put_u8(u8::from(s.was_split));
    }
}

/// Reads one event body from `buf`, the inverse of [`put_event`].
fn take_event(buf: &mut Bytes) -> Result<(ModulatedEvent, u64), IrError> {
    let short = || IrError::Marshal("truncated frame".into());
    let need = |buf: &Bytes, n: usize| -> Result<(), IrError> {
        if buf.remaining() < n {
            Err(IrError::Marshal("truncated frame".into()))
        } else {
            Ok(())
        }
    };
    need(buf, 8 + 8 + 8 + 4 + 8 + 4)?;
    let seq = buf.get_u64();
    let t_mod_nanos = buf.get_u64();
    let epoch = buf.get_u64();
    let pse = buf.get_u32() as PseId;
    let mod_work = buf.get_u64();
    let payload_len = buf.get_u32() as usize;
    need(buf, payload_len)?;
    let payload = Marshalled::from_bytes(buf.copy_to_bytes(payload_len));
    need(buf, 4)?;
    let nsamples = buf.get_u32() as usize;
    // Each encoded sample occupies 21 bytes; reject crafted counts before
    // allocating.
    if nsamples.checked_mul(21).is_none_or(|b| b > buf.remaining()) {
        return Err(short());
    }
    let mut samples = Vec::with_capacity(nsamples);
    for _ in 0..nsamples {
        need(buf, 4 + 8 + 8 + 1)?;
        let pse = buf.get_u32() as PseId;
        let mod_work = buf.get_u64();
        let bytes = buf.get_u64();
        let was_split = buf.get_u8() != 0;
        samples.push(PseSample {
            pse,
            mod_work,
            payload_bytes: (bytes != u64::MAX).then_some(bytes),
            was_split,
        });
    }
    Ok((
        ModulatedEvent {
            seq,
            continuation: ContinuationMessage { pse, payload, mod_work, epoch },
            samples,
        },
        t_mod_nanos,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn wire_size_includes_samples() {
        let payload = Marshalled::from_bytes(vec![0u8; 100]);
        let event = ModulatedEvent {
            seq: 1,
            continuation: ContinuationMessage { pse: 0, payload, mod_work: 5, epoch: 0 },
            samples: vec![
                PseSample { pse: 0, mod_work: 0, payload_bytes: Some(1), was_split: false },
                PseSample { pse: 1, mod_work: 2, payload_bytes: Some(2), was_split: true },
            ],
        };
        assert_eq!(
            event.wire_size(),
            100 + mpart::continuation::CONTINUATION_HEADER_BYTES + 2 * SAMPLE_WIRE_BYTES
        );
    }

    fn sample_event() -> ModulatedEvent {
        ModulatedEvent {
            seq: 42,
            continuation: ContinuationMessage {
                pse: 3,
                payload: Marshalled::from_bytes(vec![1u8, 2, 3, 4, 5]),
                mod_work: 77,
                epoch: 9,
            },
            samples: vec![
                PseSample { pse: 0, mod_work: 1, payload_bytes: Some(100), was_split: false },
                PseSample { pse: 3, mod_work: 9, payload_bytes: None, was_split: true },
            ],
        }
    }

    #[test]
    fn event_frame_round_trips() {
        let frame = Frame::Event { event: sample_event(), t_mod_nanos: 1_500_000 };
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        match decoded {
            Frame::Event { event: e, t_mod_nanos } => {
                assert_eq!(t_mod_nanos, 1_500_000);
                assert_eq!(e.seq, 42);
                assert_eq!(e.continuation.pse, 3);
                assert_eq!(e.continuation.mod_work, 77);
                assert_eq!(e.continuation.epoch, 9);
                assert_eq!(e.continuation.payload.as_bytes(), &[1, 2, 3, 4, 5]);
                assert_eq!(e.samples.len(), 2);
                assert_eq!(e.samples[0].payload_bytes, Some(100));
                assert_eq!(e.samples[1].payload_bytes, None);
                assert!(e.samples[1].was_split);
            }
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn plan_heartbeat_and_ack_round_trip() {
        let frame =
            Frame::Plan(PlanEnvelope { active: vec![1, 4, 9], revision: 7, epoch: 12, ack: 40 });
        let bytes = frame.encode();
        match Frame::decode_bytes(&bytes).unwrap().0 {
            Frame::Plan(p) => {
                assert_eq!(p.active, vec![1, 4, 9]);
                assert_eq!(p.revision, 7);
                assert_eq!(p.epoch, 12);
                assert_eq!(p.ack, 40);
            }
            other => panic!("expected plan, got {other:?}"),
        }
        let hb = Frame::Heartbeat { seq: 88 }.encode();
        assert!(matches!(Frame::decode_bytes(&hb).unwrap().0, Frame::Heartbeat { seq: 88 }));
        let ack = Frame::Ack { ack: 31 }.encode();
        assert!(matches!(Frame::decode_bytes(&ack).unwrap().0, Frame::Ack { ack: 31 }));
    }

    #[test]
    fn batch_frame_round_trips_in_order() {
        let events: Vec<(ModulatedEvent, u64)> = (0..4)
            .map(|i| {
                let mut e = sample_event();
                e.seq = 100 + i;
                (e, 1000 + i)
            })
            .collect();
        let frame = Frame::Batch { events };
        let bytes = frame.encode();
        match Frame::decode_bytes(&bytes).unwrap().0 {
            Frame::Batch { events } => {
                assert_eq!(events.len(), 4);
                for (i, (e, t)) in events.iter().enumerate() {
                    assert_eq!(e.seq, 100 + i as u64, "per-source order preserved");
                    assert_eq!(*t, 1000 + i as u64);
                    assert_eq!(e.continuation.payload.as_bytes(), &[1, 2, 3, 4, 5]);
                    assert_eq!(e.samples.len(), 2);
                }
            }
            other => panic!("expected batch, got {other:?}"),
        }
        // One header + checksum for the whole batch: cheaper than four
        // singleton frames.
        let singleton = Frame::Event { event: sample_event(), t_mod_nanos: 7 }.encode().len();
        assert!(bytes.len() < 4 * singleton);
    }

    #[test]
    fn batch_ack_round_trips_and_is_cheaper_than_member_acks() {
        let frame = Frame::BatchAck { watermarks: vec![100, 101, 103] };
        let bytes = frame.encode();
        match Frame::decode_bytes(&bytes).unwrap().0 {
            Frame::BatchAck { watermarks } => {
                assert_eq!(watermarks, vec![100, 101, 103], "demod order preserved");
            }
            other => panic!("expected batch ack, got {other:?}"),
        }
        // One header + checksum for three watermarks: cheaper than three
        // standalone acks.
        let singleton = Frame::Ack { ack: 100 }.encode().len();
        assert!(bytes.len() < 3 * singleton);
        // Degenerate empty ack still round-trips.
        let empty = Frame::BatchAck { watermarks: vec![] }.encode();
        match Frame::decode_bytes(&empty).unwrap().0 {
            Frame::BatchAck { watermarks } => assert!(watermarks.is_empty()),
            other => panic!("expected batch ack, got {other:?}"),
        }
    }

    #[test]
    fn batch_ack_count_is_validated_before_allocation() {
        // A batch ack claiming u32::MAX watermarks with an empty body must
        // be rejected without allocating.
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Frame::decode(6, &body).is_err());
        // Truncating a valid batch ack mid-watermark fails cleanly too.
        let clean = Frame::BatchAck { watermarks: vec![1, 2, 3] }.encode();
        assert!(Frame::decode(clean[0], &clean[FRAME_HEADER_BYTES..clean.len() - 4]).is_err());
    }

    #[test]
    fn batch_count_is_validated_before_allocation() {
        // A batch claiming u32::MAX events with an empty body must be
        // rejected without allocating.
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Frame::decode(5, &body).is_err());
        // Truncating a valid batch mid-event fails cleanly too.
        let clean =
            Frame::Batch { events: vec![(sample_event(), 1), (sample_event(), 2)] }.encode();
        assert!(Frame::decode(clean[0], &clean[FRAME_HEADER_BYTES..clean.len() - 10]).is_err());
    }

    #[test]
    fn shutdown_and_stream_io() {
        let mut buf = Vec::new();
        Frame::Event { event: sample_event(), t_mod_nanos: 7 }.write_to(&mut buf).unwrap();
        Frame::Plan(PlanEnvelope { active: vec![2], revision: 1, epoch: 2, ack: 0 })
            .write_to(&mut buf)
            .unwrap();
        Frame::Shutdown.write_to(&mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(Frame::read_from(&mut cursor).unwrap(), Frame::Event { .. }));
        assert!(matches!(Frame::read_from(&mut cursor).unwrap(), Frame::Plan(_)));
        assert!(matches!(Frame::read_from(&mut cursor).unwrap(), Frame::Shutdown));
        assert!(Frame::read_from(&mut cursor).is_err(), "EOF is an error");
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let clean = Frame::Event { event: sample_event(), t_mod_nanos: 7 }.encode();
        // Flip every byte position in turn: either the checksum or the
        // header validation must catch each corruption.
        for i in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x40;
            assert!(Frame::decode_bytes(&dirty).is_err(), "corruption at byte {i} went undetected");
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(Frame::decode(99, &[]).is_err());
        assert!(Frame::decode(0, &[1, 2, 3]).is_err());
        // Huge declared payload with a tiny body.
        let mut body = Vec::new();
        body.extend_from_slice(&42u64.to_be_bytes());
        body.extend_from_slice(&3u64.to_be_bytes());
        body.extend_from_slice(&9u64.to_be_bytes());
        body.extend_from_slice(&7u32.to_be_bytes());
        body.extend_from_slice(&5u64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Frame::decode(0, &body).is_err());
        // A length prefix above MAX_FRAME_SIZE is refused before any
        // allocation happens.
        let mut oversized = vec![FRAME_EVENT];
        oversized.extend_from_slice(&(u32::MAX).to_be_bytes());
        oversized.extend_from_slice(&[0u8; 4]);
        assert!(Frame::decode_bytes(&oversized).is_err());
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    /// A header may claim the full 64 MiB; the receiver commits memory to
    /// the bytes that arrive, not to the claim.
    #[test]
    fn oversized_claim_with_a_short_body_costs_no_allocation() {
        let mut wire = vec![FRAME_EVENT];
        wire.extend_from_slice(&(MAX_FRAME_SIZE as u32).to_be_bytes());
        wire.extend_from_slice(&[0u8; 4]);
        wire.extend_from_slice(&[0xAB; 100]);

        let mut stream = std::io::Cursor::new(&wire[FRAME_HEADER_BYTES..]);
        let body = read_body(&mut stream, MAX_FRAME_SIZE).unwrap();
        assert_eq!(body.len(), 100, "everything that arrived, nothing invented");
        assert!(
            body.capacity() <= READ_RESERVE_BYTES,
            "reserved {} bytes for a body that never came",
            body.capacity()
        );

        let err = Frame::read_from(&mut std::io::Cursor::new(&wire)).unwrap_err();
        assert!(err.to_string().contains("frame body"), "{err}");
        // EOF right after the header is the same error.
        let err = Frame::read_from(&mut std::io::Cursor::new(&wire[..FRAME_HEADER_BYTES]));
        assert!(err.unwrap_err().to_string().contains("frame body"));
    }

    /// A body larger than the up-front reservation still arrives whole.
    #[test]
    fn bodies_above_the_read_reservation_round_trip() {
        let frame =
            Frame::Event { event: event_with_payload(READ_RESERVE_BYTES + 4096), t_mod_nanos: 5 };
        let wire = frame.encode();
        match Frame::read_from(&mut std::io::Cursor::new(&wire)).unwrap() {
            Frame::Event { event, .. } => assert_eq!(
                event.continuation.payload.as_bytes(),
                event_with_payload(READ_RESERVE_BYTES + 4096).continuation.payload.as_bytes()
            ),
            other => panic!("expected event, got {other:?}"),
        }
    }

    /// Whether two decode results are the same frame (by its encoding) or
    /// the same refusal.
    fn same_decode(a: &Result<Frame, IrError>, b: &Result<Frame, IrError>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a.encode() == b.encode(),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// Fuzz-style robustness: random byte strings through the decoders
    /// must produce errors or frames — never panics, never huge
    /// allocations (the run itself would OOM or crash on violation) — and
    /// the owned-buffer decoder must agree with the copying one on every
    /// one of them.
    #[test]
    fn random_bytes_never_panic_the_decoder() {
        let mut rng = StdRng::seed_from_u64(0xF417_F417);
        for round in 0..2000 {
            let len = rng.random_range(0usize..512);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u64..256) as u8).collect();
            // Half the rounds: start from a valid frame and corrupt it, to
            // reach deeper decode paths than pure noise would.
            if round % 2 == 0 {
                let mut framed = Frame::Event { event: sample_event(), t_mod_nanos: 1 }.encode();
                if !bytes.is_empty() {
                    let n = bytes.len().min(framed.len());
                    let at = rng.random_range(0..framed.len() - (n - 1));
                    framed[at..at + n].copy_from_slice(&bytes[..n]);
                }
                bytes = framed;
            }
            let whole = Frame::decode_bytes(&bytes).map(|(frame, _)| frame);
            let mut cursor = std::io::Cursor::new(bytes.clone());
            let streamed = Frame::read_from(&mut cursor);
            // A stream reports a cut-short frame in its own words.
            if whole.is_ok() || streamed.is_ok() {
                assert!(same_decode(&whole, &streamed), "round {round}: {whole:?} vs {streamed:?}");
            }
            if !bytes.is_empty() {
                let copied = Frame::decode(bytes[0], &bytes[1..]);
                let owned = Frame::decode_owned(bytes[0], Bytes::copy_from_slice(&bytes[1..]));
                assert!(same_decode(&copied, &owned), "round {round}: {copied:?} vs {owned:?}");
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926, "split input agrees");
        assert_eq!(crc32_reference(&[b"123456789"]), 0xCBF4_3926);
    }

    /// The fold path called directly, whatever the slice length, or `None`
    /// when this CPU (or target) has no fold path.
    fn fold_update(crc: u32, bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        return clmul::update(crc, bytes);
        #[cfg(not(target_arch = "x86_64"))]
        return None;
    }

    /// Says so in the test output when this CPU has no fold path, so a
    /// skipped row is never silent.
    fn note_skipped_fold_rows() {
        if fold_update(!0, &[]).is_none() {
            println!("no pclmulqdq + sse4.1 on this CPU: fold rows skipped, table rows checked");
        }
    }

    /// Every implementation over every length to 1 KiB and three frame
    /// sizes, at each of the 16 start alignments: the fold and the table
    /// walk called directly (so the fallback stays covered on a CPU that
    /// has the fold), the dispatcher, and the bitwise oracle agree.
    #[test]
    fn fold_table_and_reference_agree_at_every_length_and_alignment() {
        let lens = (0..=1024).chain([4097, 16_500, 264_000]);
        let max = 264_000;
        let mut rng = StdRng::seed_from_u64(0xF01D);
        let buf: Vec<u8> = (0..max + 32).map(|_| rng.random_range(0u64..256) as u8).collect();
        let skew = (16 - buf.as_ptr() as usize % 16) % 16;
        note_skipped_fold_rows();
        for len in lens {
            for align in 0..16 {
                let data = &buf[skew + align..skew + align + len];
                assert_eq!(data.as_ptr() as usize % 16, align);
                let want = crc32_reference(&[data]);
                assert_eq!(!crc32_table(!0, data), want, "table, len {len} align {align}");
                assert_eq!(crc32(&[data]), want, "dispatched, len {len} align {align}");
                if let Some(got) = fold_update(!0, data) {
                    assert_eq!(!got, want, "fold, len {len} align {align}");
                }
            }
        }
    }

    /// Streaming: the register carried across a split gives the CRC of the
    /// whole, for random splits and for splits that leave under 16 or
    /// under 64 bytes on either side (the fold's tail and the dispatch
    /// threshold), on the fold, the table, and the dispatcher.
    #[test]
    fn streamed_crc_agrees_across_split_points() {
        let mut rng = StdRng::seed_from_u64(0x5711);
        let max = 264_000;
        let buf: Vec<u8> = (0..max + 16).map(|_| rng.random_range(0u64..256) as u8).collect();
        note_skipped_fold_rows();
        for len in (0..=1024).chain([4097, 16_500, 264_000]) {
            let align = rng.random_range(0usize..16);
            let data = &buf[align..align + len];
            let want = crc32_reference(&[data]);
            let mut splits = vec![rng.random_range(0..=len), rng.random_range(0..=len)];
            for edge in [1, 15, 16, 17, 63, 64, 65, 127, 128, 129] {
                splits.extend([edge, len.saturating_sub(edge)].into_iter().filter(|&at| at <= len));
            }
            for at in splits {
                let (a, b) = data.split_at(at);
                let table = crc32_table(crc32_table(!0, a), b);
                assert_eq!(!table, want, "table, len {len} split {at}");
                assert_eq!(crc32(&[a, b]), want, "dispatched, len {len} split {at}");
                if let Some(mid) = fold_update(!0, a) {
                    let fold = fold_update(mid, b).expect("fold path");
                    assert_eq!(!fold, want, "fold, len {len} split {at}");
                }
            }
        }
    }

    /// Corruption on the fast path: a frame well above the fold threshold
    /// with every header bit flipped in turn, then 256 random body bits.
    /// Both checking decoders refuse each one with a checksum mismatch, or,
    /// when the bit is in `len`, possibly with the length check instead.
    #[test]
    fn bit_flips_in_a_large_frame_fail_the_checksum() {
        let clean = Frame::Event { event: event_with_payload(16 * 1024), t_mod_nanos: 9 }.encode();
        assert!(clean.len() > 16 * 1024 + FRAME_HEADER_BYTES);
        let mut rng = StdRng::seed_from_u64(0xB17F_11B5);
        let header_bits = 0..FRAME_HEADER_BYTES * 8;
        let body_bits = (0..256).map(|_| rng.random_range(FRAME_HEADER_BYTES * 8..clean.len() * 8));
        for bit in header_bits.chain(body_bits) {
            let mut dirty = clean.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            let in_len = (1..5).contains(&(bit / 8));
            let refused = |err: &str| {
                err.contains("frame checksum mismatch")
                    || in_len
                        && ["frame too large", "truncated frame body", "stream ended"]
                            .iter()
                            .any(|e| err.contains(e))
            };
            let whole = Frame::decode_bytes(&dirty).map(|_| ()).unwrap_err().to_string();
            assert!(refused(&whole), "decode_bytes, bit {bit}: {whole}");
            let read = Frame::read_from(&mut std::io::Cursor::new(&dirty));
            let streamed = read.map(|_| ()).unwrap_err().to_string();
            assert!(refused(&streamed), "read_from, bit {bit}: {streamed}");
        }
    }

    fn event_with_payload(len: usize) -> ModulatedEvent {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        ModulatedEvent {
            seq: 7,
            continuation: ContinuationMessage {
                pse: 2,
                payload: Marshalled::from_bytes(payload),
                mod_work: 11,
                epoch: 4,
            },
            samples: vec![PseSample {
                pse: 2,
                mod_work: 11,
                payload_bytes: Some(len as u64),
                was_split: true,
            }],
        }
    }

    fn all_kinds() -> Vec<Frame> {
        vec![
            Frame::Event { event: sample_event(), t_mod_nanos: 1_500_000 },
            Frame::Event { event: event_with_payload(ZERO_COPY_MIN_BYTES - 1), t_mod_nanos: 3 },
            Frame::Event { event: event_with_payload(ZERO_COPY_MIN_BYTES), t_mod_nanos: 3 },
            Frame::Event { event: event_with_payload(64 * 1024), t_mod_nanos: 3 },
            Frame::Plan(PlanEnvelope { active: vec![1, 4, 9], revision: 7, epoch: 12, ack: 40 }),
            Frame::Heartbeat { seq: 88 },
            Frame::Ack { ack: 31 },
            Frame::Shutdown,
            Frame::Batch { events: vec![] },
            Frame::Batch {
                events: vec![
                    (sample_event(), 1),
                    (event_with_payload(8 * 1024), 2),
                    (event_with_payload(16), 3),
                    (event_with_payload(2 * ZERO_COPY_MIN_BYTES), 4),
                ],
            },
            Frame::BatchAck { watermarks: vec![100, 101, 103] },
            Frame::BatchAck { watermarks: vec![] },
        ]
    }

    #[test]
    fn scatter_gather_encoding_is_bit_identical_to_copy_encoder() {
        for frame in all_kinds() {
            let legacy = frame.encode_via_copy();
            let enc = frame.encode_frame();
            assert_eq!(enc.to_vec(), legacy, "segment flatten differs: {frame:?}");
            assert_eq!(enc.len(), legacy.len(), "length accounting differs");
            assert_eq!(frame.encode(), legacy, "encode() delegation differs");
            assert_eq!(frame.try_encode().unwrap(), legacy, "try_encode() differs");
            let mut streamed = Vec::new();
            enc.write_to(&mut streamed).unwrap();
            assert_eq!(streamed, legacy, "vectored write differs");
            // And it still decodes.
            let (_, consumed) = Frame::decode_bytes(&legacy).unwrap();
            assert_eq!(consumed, legacy.len());
        }
    }

    #[test]
    fn large_payloads_are_borrowed_not_copied() {
        let event = event_with_payload(64 * 1024);
        let payload_ptr = event.continuation.payload.as_bytes().as_ptr();
        let enc = Frame::Event { event, t_mod_nanos: 1 }.encode_frame();
        assert_eq!(enc.borrowed_payload_bytes(), 64 * 1024);
        assert_eq!(enc.copied_payload_bytes(), 0);
        // The borrowed segment aliases the marshalled buffer: same
        // allocation, not a copy.
        let borrowed =
            enc.segments().iter().find(|s| s.len() == 64 * 1024).expect("borrowed segment");
        assert!(std::ptr::eq(borrowed.as_ref().as_ptr(), payload_ptr), "payload was copied");
        // Below the threshold everything inlines into one segment.
        let small = Frame::Event { event: event_with_payload(100), t_mod_nanos: 1 }.encode_frame();
        assert_eq!(small.segments().len(), 1, "small frames stay contiguous");
        assert_eq!(small.copied_payload_bytes(), 100);
        assert_eq!(small.borrowed_payload_bytes(), 0);
    }

    #[test]
    fn batch_gathers_member_segments_into_one_frame() {
        let frame = Frame::Batch {
            events: vec![
                (event_with_payload(4 * 1024), 1),
                (event_with_payload(10), 2),
                (event_with_payload(8 * 1024), 3),
            ],
        };
        let enc = frame.encode_frame();
        // Header+count+member1-fields | payload1 | member1-samples+member2+
        // member3-fields | payload3 | member3-samples: 5 segments, 2 borrowed.
        assert_eq!(enc.segments().len(), 5);
        assert_eq!(enc.borrowed_payload_bytes(), 12 * 1024);
        assert_eq!(enc.copied_payload_bytes(), 10);
        assert_eq!(enc.to_vec(), frame.encode_via_copy());
    }

    /// A writer that accepts at most `cap` bytes per call, exercising the
    /// partial-write resume path of [`write_all_vectored`].
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                if n == self.cap {
                    break;
                }
                let take = buf.len().min(self.cap - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_partial_writes() {
        for cap in [1usize, 3, 9, 100, 1 << 20] {
            for frame in all_kinds() {
                let mut w = Dribble { out: Vec::new(), cap };
                frame.encode_frame().write_to(&mut w).unwrap();
                assert_eq!(w.out, frame.encode_via_copy(), "cap {cap}");
            }
        }
        // Raw helper: empty buffers are skipped, not mistaken for WriteZero.
        let mut w = Dribble { out: Vec::new(), cap: 2 };
        write_all_vectored(&mut w, &[b"", b"ab", b"", b"cde", b""]).unwrap();
        assert_eq!(w.out, b"abcde");
    }

    #[test]
    fn encoded_frame_outlives_the_source_event() {
        // A retransmission window holds EncodedFrames after the event (and
        // its Marshalled payload handle) is gone; the refcounted borrow
        // keeps the allocation alive.
        let frame = Frame::Event { event: event_with_payload(32 * 1024), t_mod_nanos: 9 };
        let expected = frame.encode_via_copy();
        let enc = frame.encode_frame();
        drop(frame);
        assert_eq!(enc.to_vec(), expected);
    }
}
