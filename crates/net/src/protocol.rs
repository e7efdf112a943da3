//! The versa-net wire protocol: versioned, checksummed, length-prefixed
//! binary frames (DESIGN.md §7.1).
//!
//! Every frame is
//!
//! ```text
//! magic "VN" (2) | version u16 (2) | type u8 (1) | tag u64 (8) |
//! len u32 (4) | payload (len) | crc32(payload) u32 (4)
//! ```
//!
//! all little-endian. The `tag` multiplexes concurrent requests over one
//! connection: a response carries the tag of the request it answers.
//! The CRC covers the payload only (the header is validated field by
//! field), using the IEEE polynomial.
//!
//! Encoding and decoding are pure functions over byte slices —
//! [`encode_frame`] / [`decode_frame`] — so the property tests can
//! round-trip and mutate frames without sockets. Decoding NEVER panics:
//! every malformed input maps to a typed [`ProtoError`].

use std::fmt;

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"VN";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;

/// Frame header length (everything before the payload).
pub const HEADER_LEN: usize = 2 + 2 + 1 + 8 + 4;

/// Hard cap on payload length (1 GiB): a corrupt length field must not
/// turn into an unbounded allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Why a frame failed to decode. Every variant is a *protocol* error:
/// decoding malformed bytes returns one of these, never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the header + declared payload + checksum need.
    Truncated,
    /// The first two bytes are not `"VN"`.
    BadMagic,
    /// The version field differs from [`VERSION`].
    BadVersion(u16),
    /// The payload checksum does not match.
    BadChecksum,
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    BadLength(u32),
    /// Unknown frame type byte.
    BadFrameType(u8),
    /// The payload is structurally malformed for its frame type.
    BadPayload,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Transport-level I/O failure (connect, read, write).
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic => write!(f, "bad magic (not a versa-net frame)"),
            ProtoError::BadVersion(v) => write!(f, "protocol version mismatch (got {v}, want {VERSION})"),
            ProtoError::BadChecksum => write!(f, "payload checksum mismatch"),
            ProtoError::BadLength(n) => write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}"),
            ProtoError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::BadPayload => write!(f, "malformed payload"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

/// One access clause of an [`Frame::Exec`] request, in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireAccess {
    /// Allocation id.
    pub data: u32,
    /// Byte offset of the accessed range.
    pub offset: u64,
    /// Length of the accessed range.
    pub len: u64,
    /// Full length of the backing allocation (the worker materializes
    /// output-only buffers it never received bytes for).
    pub alloc_len: u64,
    /// Access mode: 0 = In, 1 = Out, 2 = InOut.
    pub mode: u8,
}

/// Every message that crosses the wire (DESIGN.md §7.1 frame table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator, first frame on a connection: advertise
    /// capabilities and gossip any cached profile hints (empty = none).
    Hello {
        /// Node name (host:port or a user label).
        name: String,
        /// SMP workers the node contributes.
        smp_workers: u32,
        /// SIMD tier the node's kernels dispatch to (informational).
        simd_tier: String,
        /// Profile-hints text cached from a previous membership.
        hints: String,
    },
    /// Coordinator → worker: membership granted. Carries the node's
    /// dense id and the coordinator's current profile hints (the warm
    /// gossip that lets a joining node skip the learning phase).
    Welcome {
        /// Dense node id (1-based; 0 is the coordinator).
        node_id: u16,
        /// Coordinator profile-hints text (empty = cold).
        hints: String,
    },
    /// Coordinator → worker: the full bytes of one allocation.
    Ship {
        /// Allocation id.
        data: u32,
        /// The bytes.
        bytes: Vec<u8>,
    },
    /// Worker → coordinator: shipment received and stored.
    ShipAck,
    /// Coordinator → worker: run one task.
    Exec {
        /// Task id (logging only; the worker holds no graph).
        task: u64,
        /// Template name, resolved against the worker's own registry.
        template: String,
        /// Version to run.
        version: u16,
        /// Attempt number (1-based).
        attempt: u32,
        /// Access clauses.
        accesses: Vec<WireAccess>,
    },
    /// Worker → coordinator: task succeeded.
    ExecOk {
        /// Measured kernel time on the worker, nanoseconds.
        kernel_ns: u64,
        /// `(allocation, full bytes)` for every written allocation.
        writes: Vec<(u32, Vec<u8>)>,
    },
    /// Worker → coordinator: the task's kernel failed (panic or typed
    /// error). The *connection* is still healthy.
    ExecErr {
        /// Human-readable failure.
        message: String,
    },
    /// Liveness probe, either direction.
    Heartbeat,
    /// Liveness reply.
    HeartbeatAck,
    /// Coordinator → worker: leave cleanly. Carries the coordinator's
    /// final hints so the worker can cache warmth for its next join.
    Shutdown {
        /// Final profile-hints text (empty = none).
        hints: String,
    },
    /// Worker → coordinator: shutting down.
    ShutdownAck,
}

/// Type bytes of the two frames that carry tile bodies (they can be
/// laid out from borrowed buffers, without a [`Frame`]).
const TYPE_SHIP: u8 = 3;
const TYPE_EXEC_OK: u8 = 6;

impl Frame {
    /// The frame's wire type byte.
    pub(crate) fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::Ship { .. } => TYPE_SHIP,
            Frame::ShipAck => 4,
            Frame::Exec { .. } => 5,
            Frame::ExecOk { .. } => TYPE_EXEC_OK,
            Frame::ExecErr { .. } => 7,
            Frame::Heartbeat => 8,
            Frame::HeartbeatAck => 9,
            Frame::Shutdown { .. } => 10,
            Frame::ShutdownAck => 11,
        }
    }
}

// ---------------------------------------------------------------- crc32

/// How many input bytes one table-lookup round consumes.
const CRC_SLICES: usize = 16;

/// Slice-by-16 tables for the reflected IEEE polynomial, built at compile
/// time: `CRC_TABLES[0]` is the classic bytewise table, `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming IEEE CRC-32: feeding a payload in any number of pieces
/// yields the checksum of the whole, so bulk bodies are checksummed
/// where they lie instead of being gathered into one buffer first.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The checksum of zero bytes so far.
    pub(crate) const fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the CPU features `fold` is compiled for were just
            // detected, and `bytes` holds at least `MIN_LEN` bytes.
            let (state, rest) = unsafe { clmul::fold(self.0, bytes) };
            self.0 = state;
            self.update_sliced(rest);
            return;
        }
        self.update_sliced(bytes);
    }

    /// The portable path: slice-by-16 table lookups.
    fn update_sliced(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut rounds = bytes.chunks_exact(CRC_SLICES);
        for r in &mut rounds {
            let w = |i: usize| u32::from_le_bytes([r[i], r[i + 1], r[i + 2], r[i + 3]]);
            let (a, b, d, e) = (w(0) ^ c, w(4), w(8), w(12));
            c = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][(b & 0xFF) as usize]
                ^ t[10][((b >> 8) & 0xFF) as usize]
                ^ t[9][((b >> 16) & 0xFF) as usize]
                ^ t[8][(b >> 24) as usize]
                ^ t[7][(d & 0xFF) as usize]
                ^ t[6][((d >> 8) & 0xFF) as usize]
                ^ t[5][((d >> 16) & 0xFF) as usize]
                ^ t[4][(d >> 24) as usize]
                ^ t[3][(e & 0xFF) as usize]
                ^ t[2][((e >> 8) & 0xFF) as usize]
                ^ t[1][((e >> 16) & 0xFF) as usize]
                ^ t[0][(e >> 24) as usize];
        }
        for &b in rounds.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009): four
/// 128-bit lanes are folded forward 64 bytes at a time, reduced to one
/// lane, then to 32 bits by a Barrett reduction. Same polynomial, same
/// state, same result as the table path — the unit tests hold the two
/// (and the bytewise loop) equal at every length and alignment.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input [`fold`] accepts; shorter pieces take the tables.
    pub(crate) const MIN_LEN: usize = 128;

    // x^n mod P(x) for the fold distances, bit-reflected (the paper's
    // constants for the IEEE 802.3 polynomial).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    fn reduce128(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let t1 = _mm_clmulepi64_si128(a, keys, 0x00);
        let t2 = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, t1), t2)
    }

    /// Fold the longest prefix of `data` that is a multiple of 16 bytes
    /// into the running (pre-inversion) CRC `state`; returns the new
    /// state and the unconsumed tail (fewer than 16 bytes).
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    ///
    /// # Panics
    /// Panics if `data` is shorter than [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub(crate) unsafe fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        assert!(data.len() >= MIN_LEN, "clmul fold needs at least {MIN_LEN} bytes");
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `b` is a reference to 16 readable bytes; the load is
        // unaligned.
        let load = |b: &[u8; 16]| unsafe { _mm_loadu_si128(b.as_ptr().cast()) };
        let (head, mut blocks) = blocks.split_at(4);
        let mut x3 = _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32));
        let (mut x2, mut x1, mut x0) = (load(&head[1]), load(&head[2]), load(&head[3]));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some((four, rest)) = blocks.split_first_chunk::<4>() {
            x3 = reduce128(x3, load(&four[0]), k1k2);
            x2 = reduce128(x2, load(&four[1]), k1k2);
            x1 = reduce128(x1, load(&four[2]), k1k2);
            x0 = reduce128(x0, load(&four[3]), k1k2);
            blocks = rest;
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = reduce128(x3, x2, k3k4);
        x = reduce128(x, x1, k3k4);
        x = reduce128(x, x0, k3k4);
        for b in blocks {
            x = reduce128(x, load(b), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits (reflected: the result is the
        // upper half of the low quadword).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32, tail)
    }
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ------------------------------------------------------------- encoding

/// Where encoded payload bytes go. Scalar fields are always copied;
/// bulk bodies (tile bytes) are copied by the contiguous encoder
/// ([`encode_frame`]) and only *referenced* by the gather encoder
/// ([`WireFrame`]), which hands them to the socket where they lie.
trait Sink<'a> {
    fn put(&mut self, small: &[u8]);
    fn bulk(&mut self, body: &'a [u8]);
}

impl<'a> Sink<'a> for Vec<u8> {
    fn put(&mut self, small: &[u8]) {
        self.extend_from_slice(small);
    }
    fn bulk(&mut self, body: &'a [u8]) {
        self.extend_from_slice(body);
    }
}

fn put_u16<'a>(out: &mut impl Sink<'a>, v: u16) {
    out.put(&v.to_le_bytes());
}
fn put_u32<'a>(out: &mut impl Sink<'a>, v: u32) {
    out.put(&v.to_le_bytes());
}
fn put_u64<'a>(out: &mut impl Sink<'a>, v: u64) {
    out.put(&v.to_le_bytes());
}
fn put_str<'a>(out: &mut impl Sink<'a>, s: &str) {
    put_u32(out, s.len() as u32);
    out.put(s.as_bytes());
}
fn put_bytes<'a>(out: &mut impl Sink<'a>, b: &'a [u8]) {
    put_u32(out, b.len() as u32);
    out.bulk(b);
}

/// The `Ship` payload.
fn put_ship<'a>(out: &mut impl Sink<'a>, data: u32, bytes: &'a [u8]) {
    put_u32(out, data);
    put_bytes(out, bytes);
}

/// The `ExecOk` payload.
fn put_exec_ok<'a>(
    out: &mut impl Sink<'a>,
    kernel_ns: u64,
    writes: impl ExactSizeIterator<Item = (u32, &'a [u8])>,
) {
    put_u64(out, kernel_ns);
    put_u32(out, writes.len() as u32);
    for (data, bytes) in writes {
        put_u32(out, data);
        put_bytes(out, bytes);
    }
}

fn encode_payload<'a>(frame: &'a Frame, p: &mut impl Sink<'a>) {
    match frame {
        Frame::Hello { name, smp_workers, simd_tier, hints } => {
            put_str(p, name);
            put_u32(p, *smp_workers);
            put_str(p, simd_tier);
            put_str(p, hints);
        }
        Frame::Welcome { node_id, hints } => {
            put_u16(p, *node_id);
            put_str(p, hints);
        }
        Frame::Ship { data, bytes } => put_ship(p, *data, bytes),
        Frame::ShipAck | Frame::Heartbeat | Frame::HeartbeatAck | Frame::ShutdownAck => {}
        Frame::Exec { task, template, version, attempt, accesses } => {
            put_u64(p, *task);
            put_str(p, template);
            put_u16(p, *version);
            put_u32(p, *attempt);
            put_u32(p, accesses.len() as u32);
            for a in accesses {
                put_u32(p, a.data);
                put_u64(p, a.offset);
                put_u64(p, a.len);
                put_u64(p, a.alloc_len);
                p.put(&[a.mode]);
            }
        }
        Frame::ExecOk { kernel_ns, writes } => {
            put_exec_ok(p, *kernel_ns, writes.iter().map(|(d, b)| (*d, b.as_slice())))
        }
        Frame::ExecErr { message } => put_str(p, message),
        Frame::Shutdown { hints } => put_str(p, hints),
    }
}

/// The frame header with a zero payload length, patched once the
/// payload has been laid out.
fn put_header(out: &mut Vec<u8>, ty: u8, tag: u64) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(ty);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
}

fn patch_len(out: &mut [u8], payload_len: usize) {
    let len = u32::try_from(payload_len).ok().filter(|n| *n <= MAX_PAYLOAD);
    let len = len.unwrap_or_else(|| panic!("payload of {payload_len} bytes exceeds the frame cap"));
    out[13..17].copy_from_slice(&len.to_le_bytes());
}

/// Encode `frame` with request tag `tag` into a self-contained wire
/// frame (header + payload + checksum).
pub fn encode_frame(frame: &Frame, tag: u64) -> Vec<u8> {
    let body = match frame {
        Frame::Ship { bytes, .. } => bytes.len(),
        Frame::ExecOk { writes, .. } => writes.iter().map(|(_, b)| b.len() + 8).sum(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + 64 + body);
    put_header(&mut out, frame.type_byte(), tag);
    encode_payload(frame, &mut out);
    let payload_len = out.len() - HEADER_LEN;
    patch_len(&mut out, payload_len);
    let crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The gather encoder's state: scalar bytes accumulate in `small`, bulk
/// bodies are remembered by the offset in `small` they follow, and the
/// checksum streams over both in wire order.
struct Gather<'a> {
    small: Vec<u8>,
    bulk: Vec<(usize, &'a [u8])>,
    crc: Crc32,
    /// `small[..hashed]` is already folded into `crc`.
    hashed: usize,
}

impl<'a> Sink<'a> for Gather<'a> {
    fn put(&mut self, small: &[u8]) {
        self.small.extend_from_slice(small);
    }
    fn bulk(&mut self, body: &'a [u8]) {
        self.crc.update(&self.small[self.hashed..]);
        self.crc.update(body);
        self.hashed = self.small.len();
        self.bulk.push((self.hashed, body));
    }
}

/// One frame laid out for a gather write: header, scalar fields and
/// checksum in an owned buffer, tile bodies *borrowed* from wherever
/// they live (an arena buffer, a [`Frame`]'s `Vec`). Building one does
/// all the CPU work of encoding — field layout and the checksum pass —
/// so it is done before taking a connection's writer lock;
/// [`WireFrame::write_to`] then only moves bytes.
///
/// The bytes on the wire are exactly those of [`encode_frame`].
pub(crate) struct WireFrame<'a> {
    small: Vec<u8>,
    /// `(offset into small, body)`: `body` goes out after `small[..offset]`.
    bulk: Vec<(usize, &'a [u8])>,
}

impl<'a> WireFrame<'a> {
    fn build(ty: u8, tag: u64, payload: impl FnOnce(&mut Gather<'a>)) -> WireFrame<'a> {
        let mut g = Gather {
            small: Vec::with_capacity(64),
            bulk: Vec::new(),
            crc: Crc32::new(),
            hashed: HEADER_LEN,
        };
        put_header(&mut g.small, ty, tag);
        payload(&mut g);
        g.crc.update(&g.small[g.hashed..]);
        let body: usize = g.bulk.iter().map(|(_, b)| b.len()).sum();
        let payload_len = g.small.len() - HEADER_LEN + body;
        patch_len(&mut g.small, payload_len);
        g.small.extend_from_slice(&g.crc.finish().to_le_bytes());
        WireFrame { small: g.small, bulk: g.bulk }
    }

    /// Lay out any frame; `Ship`/`ExecOk` bodies are borrowed from it.
    pub(crate) fn new(frame: &'a Frame, tag: u64) -> WireFrame<'a> {
        WireFrame::build(frame.type_byte(), tag, |g| encode_payload(frame, g))
    }

    /// A [`Frame::Ship`] whose bytes are borrowed from the caller.
    pub(crate) fn ship(data: u32, bytes: &'a [u8], tag: u64) -> WireFrame<'a> {
        WireFrame::build(TYPE_SHIP, tag, |g| put_ship(g, data, bytes))
    }

    /// A [`Frame::ExecOk`] whose written buffers are borrowed from the
    /// caller.
    pub(crate) fn exec_ok(kernel_ns: u64, writes: &[(u32, &'a [u8])], tag: u64) -> WireFrame<'a> {
        WireFrame::build(TYPE_EXEC_OK, tag, |g| put_exec_ok(g, kernel_ns, writes.iter().copied()))
    }

    /// The pieces in wire order.
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let mut at = 0;
        let cuts = self.bulk.iter().flat_map(move |&(cut, body)| {
            let head = &self.small[at..cut];
            at = cut;
            [head, body]
        });
        let tail = self.bulk.last().map_or(0, |&(cut, _)| cut);
        cuts.chain(std::iter::once(&self.small[tail..]))
    }

    /// The frame as one contiguous buffer (what [`encode_frame`] returns).
    #[cfg(test)]
    fn to_vec(&self) -> Vec<u8> {
        self.pieces().flatten().copied().collect()
    }

    /// Write the frame with vectored writes — the borrowed bodies go to
    /// the stream straight from where they live — and flush.
    pub(crate) fn write_to(&self, stream: &mut impl std::io::Write) -> Result<(), ProtoError> {
        if self.bulk.is_empty() {
            stream.write_all(&self.small)?;
        } else {
            let mut slices: Vec<std::io::IoSlice<'_>> =
                self.pieces().filter(|p| !p.is_empty()).map(std::io::IoSlice::new).collect();
            let mut rest = &mut slices[..];
            while !rest.is_empty() {
                match stream.write_vectored(rest) {
                    Ok(0) => {
                        return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into())
                    }
                    Ok(n) => std::io::IoSlice::advance_slices(&mut rest, n),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        stream.flush()?;
        Ok(())
    }
}

// ------------------------------------------------------------- decoding

/// A bounds-checked little-endian payload source: a slice (already
/// checksummed) for [`decode_frame`], or the stream itself for
/// [`read_frame`], which checksums as it goes and reads tile bodies
/// straight into the `Vec` the decoded frame owns.
trait Source {
    /// Fill `out` with the next `out.len()` payload bytes.
    fn fill(&mut self, out: &mut [u8]) -> Result<(), ProtoError>;
    /// The next `n` payload bytes as an owned buffer.
    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ProtoError>;
    /// Payload bytes not yet consumed.
    fn left(&self) -> usize;
}

struct SliceSource<'a>(&'a [u8]);

impl SliceSource<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        if n > self.0.len() {
            return Err(ProtoError::BadPayload);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }
}

impl Source for SliceSource<'_> {
    fn fill(&mut self, out: &mut [u8]) -> Result<(), ProtoError> {
        out.copy_from_slice(self.take(out.len())?);
        Ok(())
    }
    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ProtoError> {
        Ok(self.take(n)?.to_vec())
    }
    fn left(&self) -> usize {
        self.0.len()
    }
}

struct StreamSource<'a, R> {
    stream: &'a mut R,
    left: usize,
    crc: Crc32,
}

impl<R: std::io::Read> Source for StreamSource<'_, R> {
    fn fill(&mut self, out: &mut [u8]) -> Result<(), ProtoError> {
        if out.len() > self.left {
            return Err(ProtoError::BadPayload);
        }
        self.stream.read_exact(out).map_err(map_eof)?;
        self.left -= out.len();
        self.crc.update(out);
        Ok(())
    }
    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ProtoError> {
        // Checked against `left` (itself ≤ MAX_PAYLOAD) before allocating.
        if n > self.left {
            return Err(ProtoError::BadPayload);
        }
        let mut v = vec![0u8; n];
        self.fill(&mut v)?;
        Ok(v)
    }
    fn left(&self) -> usize {
        self.left
    }
}

fn get<const N: usize>(r: &mut impl Source) -> Result<[u8; N], ProtoError> {
    let mut b = [0u8; N];
    r.fill(&mut b)?;
    Ok(b)
}
fn get_u8(r: &mut impl Source) -> Result<u8, ProtoError> {
    Ok(get::<1>(r)?[0])
}
fn get_u16(r: &mut impl Source) -> Result<u16, ProtoError> {
    Ok(u16::from_le_bytes(get(r)?))
}
fn get_u32(r: &mut impl Source) -> Result<u32, ProtoError> {
    Ok(u32::from_le_bytes(get(r)?))
}
fn get_u64(r: &mut impl Source) -> Result<u64, ProtoError> {
    Ok(u64::from_le_bytes(get(r)?))
}
fn get_bytes(r: &mut impl Source) -> Result<Vec<u8>, ProtoError> {
    let n = get_u32(r)?;
    r.vec(n as usize)
}
fn get_string(r: &mut impl Source) -> Result<String, ProtoError> {
    String::from_utf8(get_bytes(r)?).map_err(|_| ProtoError::BadUtf8)
}

/// Decode the payload of a type-`ty` frame. The whole payload must be
/// consumed: trailing garbage is malformed.
fn decode_payload(ty: u8, r: &mut impl Source) -> Result<Frame, ProtoError> {
    let frame = match ty {
        1 => Frame::Hello {
            name: get_string(r)?,
            smp_workers: get_u32(r)?,
            simd_tier: get_string(r)?,
            hints: get_string(r)?,
        },
        2 => Frame::Welcome { node_id: get_u16(r)?, hints: get_string(r)? },
        TYPE_SHIP => Frame::Ship { data: get_u32(r)?, bytes: get_bytes(r)? },
        4 => Frame::ShipAck,
        5 => {
            let task = get_u64(r)?;
            let template = get_string(r)?;
            let version = get_u16(r)?;
            let attempt = get_u32(r)?;
            let n = get_u32(r)?;
            // Each access is 29 bytes; reject counts the payload can't hold.
            if (n as usize).saturating_mul(29) > r.left() {
                return Err(ProtoError::BadPayload);
            }
            let mut accesses = Vec::with_capacity(n as usize);
            for _ in 0..n {
                accesses.push(WireAccess {
                    data: get_u32(r)?,
                    offset: get_u64(r)?,
                    len: get_u64(r)?,
                    alloc_len: get_u64(r)?,
                    mode: match get_u8(r)? {
                        m @ 0..=2 => m,
                        _ => return Err(ProtoError::BadPayload),
                    },
                });
            }
            Frame::Exec { task, template, version, attempt, accesses }
        }
        TYPE_EXEC_OK => {
            let kernel_ns = get_u64(r)?;
            let n = get_u32(r)?;
            if (n as usize).saturating_mul(8) > r.left() {
                return Err(ProtoError::BadPayload);
            }
            let mut writes = Vec::with_capacity(n as usize);
            for _ in 0..n {
                writes.push((get_u32(r)?, get_bytes(r)?));
            }
            Frame::ExecOk { kernel_ns, writes }
        }
        7 => Frame::ExecErr { message: get_string(r)? },
        8 => Frame::Heartbeat,
        9 => Frame::HeartbeatAck,
        10 => Frame::Shutdown { hints: get_string(r)? },
        11 => Frame::ShutdownAck,
        t => return Err(ProtoError::BadFrameType(t)),
    };
    if r.left() != 0 {
        return Err(ProtoError::BadPayload);
    }
    Ok(frame)
}

/// The validated fixed-size part of a frame.
struct Header {
    ty: u8,
    tag: u64,
    len: usize,
}

fn parse_header(h: &[u8; HEADER_LEN]) -> Result<Header, ProtoError> {
    if h[0..2] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes([h[2], h[3]]);
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let len = u32::from_le_bytes([h[13], h[14], h[15], h[16]]);
    if len > MAX_PAYLOAD {
        return Err(ProtoError::BadLength(len));
    }
    let tag = u64::from_le_bytes(h[5..13].try_into().expect("8-byte tag field"));
    Ok(Header { ty: h[4], tag, len: len as usize })
}

/// Decode one frame from the front of `buf`. Returns the frame, its
/// tag, and the number of bytes consumed. `Err(Truncated)` means "feed
/// me more bytes"; every other error is a permanent protocol violation.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, u64, usize), ProtoError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Err(ProtoError::Truncated);
    };
    let Header { ty, tag, len } = parse_header(header)?;
    let total = HEADER_LEN + len + 4;
    if buf.len() < total {
        return Err(ProtoError::Truncated);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let declared = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4-byte checksum"));
    if crc32(payload) != declared {
        return Err(ProtoError::BadChecksum);
    }
    let frame = decode_payload(ty, &mut SliceSource(payload))?;
    Ok((frame, tag, total))
}

// --------------------------------------------------------- stream framing

/// Read exactly one frame from a blocking stream. Distinguishes a clean
/// EOF *between* frames (`Ok(None)`) from truncation *inside* one
/// (`Err(Truncated)`). The payload is decoded as it arrives — a tile
/// lands directly in the buffer the returned frame owns — and the
/// checksum, streamed alongside, is verified before the frame is
/// handed out.
pub fn read_frame(stream: &mut impl std::io::Read) -> Result<Option<(Frame, u64)>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte decides clean-EOF vs truncated.
    match stream.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    stream.read_exact(&mut header[1..]).map_err(map_eof)?;
    let Header { ty, tag, len } = parse_header(&header)?;
    let mut payload = StreamSource { stream, left: len, crc: Crc32::new() };
    let frame = decode_payload(ty, &mut payload)?;
    let computed = payload.crc.finish();
    let mut declared = [0u8; 4];
    stream.read_exact(&mut declared).map_err(map_eof)?;
    if computed != u32::from_le_bytes(declared) {
        return Err(ProtoError::BadChecksum);
    }
    Ok(Some((frame, tag)))
}

fn map_eof(e: std::io::Error) -> ProtoError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ProtoError::Truncated
    } else {
        e.into()
    }
}

/// Write one frame to a blocking stream.
pub fn write_frame(
    stream: &mut impl std::io::Write,
    frame: &Frame,
    tag: u64,
) -> Result<(), ProtoError> {
    WireFrame::new(frame, tag).write_to(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced implementation replaced, kept
    /// as the oracle it must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic filler that is not constant under any 16-byte stride.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8).collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic "123456789" IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        // 0..=64 walks the table path's round/remainder split; up to 400
        // walks the folding path's 64-byte, 16-byte and tail stages.
        let buf = pattern(400 + 8);
        for start in 0..8 {
            for len in 0..=400 {
                let s = &buf[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "start {start} len {len}");
                let mut sliced = Crc32::new();
                sliced.update_sliced(s);
                assert_eq!(sliced.finish(), want, "sliced, start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_streaming_equals_one_shot_at_every_split() {
        let buf = pattern(300);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let mut c = Crc32::new();
            c.update(&buf[..cut]);
            c.update(&buf[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 24 })]
        #[test]
        fn crc32_matches_bytewise_up_to_a_mebibyte(
            len in 0usize..(1 << 20) + 1,
            seed in 0u64..u64::MAX,
            cut_seed in 0usize..usize::MAX,
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let want = crc32_bytewise(&buf);
            assert_eq!(crc32(&buf), want);
            let mut sliced = Crc32::new();
            sliced.update_sliced(&buf);
            assert_eq!(sliced.finish(), want);
            let cut = cut_seed % (len + 1);
            let mut c = Crc32::new();
            c.update(&buf[..cut]);
            c.update(&buf[cut..]);
            assert_eq!(c.finish(), want);
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                name: "n".into(),
                smp_workers: 2,
                simd_tier: "avx2".into(),
                hints: "h".into(),
            },
            Frame::Ship { data: 9, bytes: pattern(1000) },
            Frame::Ship { data: 1, bytes: Vec::new() },
            Frame::Exec {
                task: 1,
                template: "t".into(),
                version: 0,
                attempt: 1,
                accesses: vec![WireAccess { data: 0, offset: 0, len: 8, alloc_len: 8, mode: 2 }],
            },
            Frame::ExecOk { kernel_ns: 5, writes: Vec::new() },
            Frame::ExecOk {
                kernel_ns: 5,
                writes: vec![(1, pattern(33)), (2, Vec::new()), (3, pattern(700))],
            },
            Frame::Heartbeat,
        ]
    }

    #[test]
    fn gather_layout_is_byte_identical_to_the_contiguous_encoder() {
        for f in sample_frames() {
            let want = encode_frame(&f, 77);
            let wire = WireFrame::new(&f, 77);
            assert_eq!(wire.to_vec(), want, "{f:?}");
            let mut written = Vec::new();
            wire.write_to(&mut written).unwrap();
            assert_eq!(written, want, "{f:?}");
        }
        let tile = pattern(500);
        assert_eq!(
            WireFrame::ship(4, &tile, 3).to_vec(),
            encode_frame(&Frame::Ship { data: 4, bytes: tile.clone() }, 3)
        );
        assert_eq!(
            WireFrame::exec_ok(8, &[(4, &tile), (5, &tile[..10])], 3).to_vec(),
            encode_frame(
                &Frame::ExecOk { kernel_ns: 8, writes: vec![(4, tile.clone()), (5, tile[..10].to_vec())] },
                3
            )
        );
    }

    /// A writer that accepts at most `chunk` bytes per call, so vectored
    /// writes end mid-slice.
    struct Dribble {
        out: Vec<u8>,
        chunk: usize,
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn gather_write_survives_short_writes() {
        for f in sample_frames() {
            for chunk in [1, 7, 64] {
                let mut w = Dribble { out: Vec::new(), chunk };
                WireFrame::new(&f, 5).write_to(&mut w).unwrap();
                assert_eq!(w.out, encode_frame(&f, 5));
            }
        }
    }

    #[test]
    fn stream_decoder_agrees_with_the_slice_decoder() {
        for f in sample_frames() {
            let wire = encode_frame(&f, 11);
            let mut cursor = std::io::Cursor::new(&wire);
            assert_eq!(read_frame(&mut cursor).unwrap(), Some((f, 11)));
            assert_eq!(cursor.position() as usize, wire.len());
            // Any corrupted payload byte is rejected by the stream decoder too.
            for pos in HEADER_LEN..wire.len() {
                let mut bad = wire.clone();
                bad[pos] ^= 0x40;
                assert!(read_frame(&mut std::io::Cursor::new(&bad)).is_err(), "flip at {pos}");
            }
        }
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        for f in [Frame::ShipAck, Frame::Heartbeat, Frame::HeartbeatAck, Frame::ShutdownAck] {
            let wire = encode_frame(&f, 7);
            let (got, tag, used) = decode_frame(&wire).unwrap();
            assert_eq!(got, f);
            assert_eq!(tag, 7);
            assert_eq!(used, wire.len());
        }
    }

    #[test]
    fn exec_frame_round_trips() {
        let f = Frame::Exec {
            task: 42,
            template: "matmul_tile".into(),
            version: 3,
            attempt: 2,
            accesses: vec![
                WireAccess { data: 1, offset: 0, len: 64, alloc_len: 64, mode: 0 },
                WireAccess { data: 2, offset: 8, len: 56, alloc_len: 128, mode: 2 },
            ],
        };
        let wire = encode_frame(&f, u64::MAX);
        assert_eq!(decode_frame(&wire).unwrap(), (f, u64::MAX, wire.len()));
    }

    #[test]
    fn bad_mode_is_rejected() {
        let f = Frame::Exec {
            task: 1,
            template: "t".into(),
            version: 0,
            attempt: 1,
            accesses: vec![WireAccess { data: 0, offset: 0, len: 8, alloc_len: 8, mode: 0 }],
        };
        let mut wire = encode_frame(&f, 0);
        // The mode byte is the last payload byte; corrupt it and re-seal
        // the checksum so only the mode check can object.
        let plen = wire.len() - 4 - HEADER_LEN;
        let last = HEADER_LEN + plen - 1;
        wire[last] = 9;
        let crc = crc32(&wire[HEADER_LEN..HEADER_LEN + plen]);
        let n = wire.len();
        wire[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&wire), Err(ProtoError::BadPayload));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        // A Heartbeat's payload is empty; one stray byte is garbage.
        let payload = vec![0xAB];
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.push(8);
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert_eq!(decode_frame(&wire), Err(ProtoError::BadPayload));
    }

    #[test]
    fn stream_read_write_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Ship { data: 9, bytes: vec![1, 2, 3] }, 5).unwrap();
        write_frame(&mut buf, &Frame::ShipAck, 5).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (f1, t1) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((f1, t1), (Frame::Ship { data: 9, bytes: vec![1, 2, 3] }, 5));
        let (f2, _) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f2, Frame::ShipAck);
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn eof_inside_frame_is_truncated() {
        let wire = encode_frame(&Frame::Heartbeat, 1);
        let mut cursor = std::io::Cursor::new(&wire[..wire.len() - 2]);
        assert_eq!(read_frame(&mut cursor), Err(ProtoError::Truncated));
    }
}
