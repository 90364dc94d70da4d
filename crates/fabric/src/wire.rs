//! The length-framed wire layer.
//!
//! Every message on a fabric connection is one frame:
//!
//! ```text
//! +----------+--------+-------------+----------------+
//! | magic(2) | tag(1) | len(4, LE)  | payload (len)  |
//! +----------+--------+-------------+----------------+
//! ```
//!
//! The payload is encoded with [`Enc`]/[`Dec`] — fixed-width
//! little-endian integers and `f64::to_le_bytes` floats, so numeric
//! round-trips are bit-exact (the fabric's bit-identity guarantee rides
//! on this). No external serialization crates: the vendored serde shim
//! is a no-op, and the format above needs nothing more.
//!
//! Framing failures are *values*, never panics: a stream that ends
//! mid-frame yields [`WireError::Truncated`], a stream that ends exactly
//! on a frame boundary yields [`WireError::Closed`] (the clean-EOF
//! signal the shard reader uses to tell "front-end gone" from "frame
//! damaged"). [`FaultPlan`] + [`FaultyWriter`] inject drop / delay /
//! truncate faults at the frame level for tests and chaos runs.

use std::io::{self, Read, Write};

/// Two-byte frame preamble: catches cross-protocol connections early.
pub const FRAME_MAGIC: [u8; 2] = *b"AF";

/// Upper bound on one frame's payload. A North-East-dataset checkpoint
/// (the largest message the fabric ships) is ~5 MB; anything past this
/// is corruption, not data, and is rejected before allocating.
pub const MAX_FRAME: u32 = 64 << 20;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream on a frame boundary (clean EOF).
    Closed,
    /// The stream ended inside a frame: `got` of `expected` bytes.
    Truncated { expected: usize, got: usize },
    /// The first two bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 2]),
    /// The header announced a payload larger than [`MAX_FRAME`].
    Oversized(u32),
    /// The frame arrived whole but its payload does not decode.
    Malformed(&'static str),
    /// A tag byte no decoder claims.
    UnknownTag(u8),
    /// Transport-level I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: {got} of {expected} bytes")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::Oversized(n) => write!(f, "oversized frame: {n} bytes"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    let mut header = [0u8; 7];
    header[..2].copy_from_slice(&FRAME_MAGIC);
    header[2] = tag;
    header[3..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Fill `buf` from `r`. EOF with zero bytes read maps to `Closed` when
/// `at_boundary`, otherwise (and for any partial fill) to `Truncated`.
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && at_boundary {
                    WireError::Closed
                } else {
                    WireError::Truncated {
                        expected: buf.len(),
                        got,
                    }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame; blocks until a whole frame (or an error) arrives.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut header = [0u8; 7];
    fill(r, &mut header, true)?;
    if header[..2] != FRAME_MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    let tag = header[2];
    let len = u32::from_le_bytes(header[3..7].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    fill(r, &mut payload, false).map_err(|e| match e {
        // EOF on the payload's first byte is still mid-frame.
        WireError::Closed => WireError::Truncated {
            expected: len as usize,
            got: 0,
        },
        other => other,
    })?;
    Ok((tag, payload))
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Append-only payload encoder. All integers little-endian fixed-width;
/// floats as raw bits, so every `f64` survives the wire bit-exactly.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Matching decoder; every read is bounds-checked and returns
/// [`WireError::Malformed`] instead of slicing out of range.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("payload underrun"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool out of range")),
        }
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("usize overflow"))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Malformed("string not utf-8"))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }

    /// Read a u32 element count and sanity-check it against the bytes
    /// actually remaining (each element needs >= `min_elem_bytes`), so a
    /// corrupt count fails fast instead of driving a huge allocation.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(WireError::Malformed("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Assert the payload was fully consumed.
    pub fn done(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What to do to one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the frame entirely (the peer never sees it).
    Drop,
    /// Write the header with the true length but only `keep` payload
    /// bytes, then kill the stream — a peer dying mid-send.
    Truncate { keep: u32 },
    /// Hold the frame for `ms` milliseconds before sending.
    Delay { ms: u64 },
}

/// A scripted set of frame-level faults, keyed by outbound frame index
/// (0-based, counted per connection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultAction)>,
}

impl FaultPlan {
    /// The no-fault plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add one fault on frame `index`.
    pub fn on_frame(mut self, index: u64, action: FaultAction) -> FaultPlan {
        self.faults.push((index, action));
        self
    }

    /// Parse a comma-separated spec: `drop:N`, `delay:N:MS`,
    /// `truncate:N:KEEP` (frame indices 0-based).
    ///
    /// ```
    /// use airshed_fabric::wire::{FaultAction, FaultPlan};
    /// let p = FaultPlan::parse("drop:3,truncate:5:7").unwrap();
    /// assert_eq!(p.action(3), Some(FaultAction::Drop));
    /// assert_eq!(p.action(5), Some(FaultAction::Truncate { keep: 7 }));
    /// assert_eq!(p.action(4), None);
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let fields: Vec<&str> = part.trim().split(':').collect();
            let num = |s: &str| -> Result<u64, String> {
                s.parse().map_err(|e| format!("fault '{part}': {e}"))
            };
            let action = match fields.as_slice() {
                ["drop", n] => (num(n)?, FaultAction::Drop),
                ["delay", n, ms] => (num(n)?, FaultAction::Delay { ms: num(ms)? }),
                ["truncate", n, keep] => (
                    num(n)?,
                    FaultAction::Truncate {
                        keep: num(keep)? as u32,
                    },
                ),
                _ => {
                    return Err(format!(
                        "bad fault '{part}' (drop:N | delay:N:MS | truncate:N:KEEP)"
                    ))
                }
            };
            plan.faults.push(action);
        }
        Ok(plan)
    }

    /// The scripted action for outbound frame `index`, if any.
    pub fn action(&self, index: u64) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, a)| *a)
    }
}

/// A frame writer that applies a [`FaultPlan`]. After a `Truncate`
/// fault the writer is dead: every later write fails with
/// `BrokenPipe`, modeling a process that crashed mid-send.
pub struct FaultyWriter<W: Write> {
    inner: W,
    plan: FaultPlan,
    sent: u64,
    dead: bool,
}

impl<W: Write> FaultyWriter<W> {
    pub fn new(inner: W, plan: FaultPlan) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            plan,
            sent: 0,
            dead: false,
        }
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Write one frame, subject to the plan.
    pub fn write_frame(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "writer killed by truncate fault",
            ));
        }
        let index = self.sent;
        self.sent += 1;
        match self.plan.action(index) {
            None => write_frame(&mut self.inner, tag, payload),
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Delay { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                write_frame(&mut self.inner, tag, payload)
            }
            Some(FaultAction::Truncate { keep }) => {
                let mut header = [0u8; 7];
                header[..2].copy_from_slice(&FRAME_MAGIC);
                header[2] = tag;
                header[3..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
                self.inner.write_all(&header)?;
                let keep = (keep as usize).min(payload.len());
                self.inner.write_all(&payload[..keep])?;
                self.inner.flush()?;
                self.dead = true;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, tag, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 7, b"hello").unwrap();
        write_frame(&mut stream, 9, &[]).unwrap();
        let mut r = Cursor::new(stream);
        assert!(matches!(read_frame(&mut r), Ok((7, p)) if p == b"hello"));
        assert!(matches!(read_frame(&mut r), Ok((9, p)) if p.is_empty()));
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn every_possible_truncation_is_a_clean_error() {
        // Chop a valid frame at every byte offset: each prefix must
        // decode to Truncated (or Closed at offset 0), never panic.
        let full = frame_bytes(3, b"payload-bytes");
        for cut in 0..full.len() {
            let mut r = Cursor::new(&full[..cut]);
            match read_frame(&mut r) {
                Err(WireError::Truncated { expected, got }) => {
                    assert!(got < expected, "cut {cut}: {got} < {expected}")
                }
                Err(WireError::Closed) => assert_eq!(cut, 0),
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_oversized_frames_are_rejected() {
        let mut bad = frame_bytes(1, b"x");
        bad[0] = b'Z';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(WireError::BadMagic(_))
        ));
        // An oversized length must be rejected *before* allocation.
        let mut huge = [0u8; 7];
        huge[..2].copy_from_slice(&FRAME_MAGIC);
        huge[3..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(huge.to_vec())),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        let mut e = Enc::new();
        e.u8(200);
        e.bool(true);
        e.u32(u32::MAX - 1);
        e.u64(1 << 60);
        e.f64(0.1 + 0.2); // not representable exactly: bits must survive
        e.f64s(&[f64::MIN_POSITIVE, -0.0, 3.5e300]);
        e.str("Cray T3E");
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 200);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), u32::MAX - 1);
        assert_eq!(d.u64().unwrap(), 1 << 60);
        assert_eq!(d.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        let v = d.f64s().unwrap();
        assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "Cray T3E");
        d.done().unwrap();
    }

    #[test]
    fn decoder_rejects_garbage_instead_of_panicking() {
        // Truncated payloads.
        assert!(Dec::new(&[1, 2]).u32().is_err());
        assert!(Dec::new(&[]).f64().is_err());
        // A length prefix claiming more elements than bytes remain.
        let mut e = Enc::new();
        e.u32(1_000_000);
        let buf = e.finish();
        assert!(matches!(
            Dec::new(&buf).f64s(),
            Err(WireError::Malformed(_))
        ));
        // Bad bool, bad utf-8, trailing bytes.
        assert!(Dec::new(&[7]).bool().is_err());
        let mut e = Enc::new();
        e.bytes(&[0xff, 0xfe]);
        let buf = e.finish();
        assert!(Dec::new(&buf).str().is_err());
        assert!(Dec::new(&[0]).done().is_err());
    }

    #[test]
    fn fault_plan_parses_and_applies() {
        let plan = FaultPlan::parse("drop:0, delay:2:15 ,truncate:4:3").unwrap();
        assert_eq!(plan.action(0), Some(FaultAction::Drop));
        assert_eq!(plan.action(2), Some(FaultAction::Delay { ms: 15 }));
        assert_eq!(plan.action(4), Some(FaultAction::Truncate { keep: 3 }));
        assert_eq!(plan.action(1), None);
        assert!(FaultPlan::parse("chew:1").is_err());
        assert!(FaultPlan::parse("drop:x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn dropped_frames_never_reach_the_peer() {
        let mut w = FaultyWriter::new(Vec::new(), FaultPlan::none().on_frame(0, FaultAction::Drop));
        w.write_frame(1, b"lost").unwrap();
        w.write_frame(2, b"kept").unwrap();
        let mut r = Cursor::new(w.into_inner());
        assert!(matches!(read_frame(&mut r), Ok((2, p)) if p == b"kept"));
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn truncate_fault_yields_clean_error_and_kills_the_writer() {
        // Satellite guarantee: a frame cut short by a dying peer is a
        // *value* (WireError::Truncated) on the read side, not a panic.
        let plan = FaultPlan::none().on_frame(1, FaultAction::Truncate { keep: 4 });
        let mut w = FaultyWriter::new(Vec::new(), plan);
        w.write_frame(1, b"first-frame").unwrap();
        w.write_frame(2, b"second-frame-cut-short").unwrap();
        // The writer is dead after the truncation, like a crashed process.
        assert_eq!(
            w.write_frame(3, b"never").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        let mut r = Cursor::new(w.into_inner());
        assert!(matches!(read_frame(&mut r), Ok((1, p)) if p == b"first-frame"));
        match read_frame(&mut r) {
            Err(WireError::Truncated { expected, got }) => {
                assert_eq!(expected, "second-frame-cut-short".len());
                assert_eq!(got, 4);
            }
            other => panic!("expected truncated frame, got {other:?}"),
        }
    }
}
