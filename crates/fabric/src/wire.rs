//! The length-framed wire layer: frames and fault injection.
//!
//! Every message on a fabric connection is one frame:
//!
//! ```text
//! +----------+--------+-------------+----------------+
//! | magic(2) | tag(1) | len(4, LE)  | payload (len)  |
//! +----------+--------+-------------+----------------+
//! ```
//!
//! The header is one more [`airshed_core::codec`](mod@airshed_core::codec) layout, and the
//! payload is a [`Msg`](crate::proto::Msg)'s fields in theirs, so every
//! number crosses the wire bit-exactly (the fabric's bit-identity
//! guarantee rides on this).
//!
//! Framing failures are *values*, never panics: a stream that ends
//! mid-frame yields [`WireError::Truncated`], a stream that ends exactly
//! on a frame boundary yields [`WireError::Closed`] (the clean-EOF
//! signal the shard reader uses to tell "front-end gone" from "frame
//! damaged"). [`FaultPlan`] + [`FaultyWriter`] inject drop / delay /
//! truncate faults at the frame level for tests and chaos runs.

use airshed_core::codec::{self, Codec, WireError};
use std::io::{self, Read, Write};

/// Two-byte frame preamble: catches cross-protocol connections early.
pub const FRAME_MAGIC: [u8; 2] = *b"AF";

/// Upper bound on one frame's payload. A North-East-dataset checkpoint
/// (the largest message the fabric ships) is ~5 MB; anything past this
/// is corruption, not data, and is rejected before allocating.
pub const MAX_FRAME: u32 = 64 << 20;

/// The bytes before every payload.
struct Header {
    magic: [u8; 2],
    tag: u8,
    len: u32,
}
airshed_core::codec! { Header { magic, tag, len } }

fn header(tag: u8, payload: &[u8]) -> Vec<u8> {
    codec::encode(&Header {
        magic: FRAME_MAGIC,
        tag,
        len: payload.len() as u32,
    })
}

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    w.write_all(&header(tag, payload))?;
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
    let mut bytes = [0; Header::MIN_BYTES];
    fill(r, &mut bytes, true)?;
    let Header { magic, tag, len } = codec::decode(&bytes)?;
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
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
                self.inner.write_all(&header(tag, payload))?;
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
