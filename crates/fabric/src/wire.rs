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
//! The header is one more [`airshed_core::codec`](mod@airshed_core::codec) layout, and the
//! payload is a [`Msg`](crate::proto::Msg)'s fields in theirs, so every
//! number crosses the wire bit-exactly (the fabric's bit-identity
//! guarantee rides on this).
//!
//! Framing failures are *values*, never panics: a stream that ends
//! mid-frame yields [`WireError::Truncated`], a stream that ends exactly
//! on a frame boundary yields [`WireError::Closed`] (the clean-EOF
//! signal the shard reader uses to tell "front-end gone" from "frame
//! damaged"). The fabric's failure paths above this layer are exercised
//! by a seeded simulation of the front-end (`tests/fabric_sim.rs`), not
//! by faults injected here.

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

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    let header = Header {
        magic: FRAME_MAGIC,
        tag,
        len: payload.len() as u32,
    };
    w.write_all(&codec::encode(&header))?;
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
}
