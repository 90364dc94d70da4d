//! Checkpoint / restart.
//!
//! Multi-day episodes on 1990s machine-room schedules needed restart
//! files; ours are also the honest test that the simulation carries **no
//! hidden state across hours**: a run split at any hour boundary must be
//! bit-identical to an uninterrupted one (verified in the integration
//! tests). A checkpoint file is the `ASHCKPT1` magic followed by the
//! checkpoint's [`Codec`](crate::codec::Codec) layout (declared in
//! [`crate::codec`](mod@crate::codec)); a fabric `Progress` frame nests the same bytes.

use crate::codec::{self, WireError};
use crate::state::SimState;

const MAGIC: &[u8; 8] = b"ASHCKPT1";

/// A restartable snapshot: the concentration state plus the hour to
/// resume at.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Next hour to simulate (absolute hour index).
    pub next_hour: usize,
    pub state: SimState,
}

impl Checkpoint {
    /// Serialise to bytes.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode_magic(MAGIC, self)
    }

    /// Deserialise from bytes; validates the magic, the shape against
    /// the bytes present, and every concentration.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        codec::decode_magic(MAGIC, bytes)
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint, WireError> {
        Checkpoint::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetChoice;

    fn sample() -> Checkpoint {
        let d = DatasetChoice::Tiny(60).build();
        let mut state = SimState::from_background(&d);
        state.conc[7] = 0.123456789;
        Checkpoint {
            next_hour: 17,
            state,
        }
    }

    #[test]
    fn roundtrip_is_bitwise_exact() {
        let c = sample();
        let back = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(back.next_hour, 17);
        assert_eq!(back.state.shape(), c.state.shape());
        assert_eq!(back.state.conc, c.state.conc);
    }

    #[test]
    fn rejects_corruption() {
        let c = sample();
        let malformed =
            |bytes: &[u8]| matches!(Checkpoint::decode(bytes), Err(WireError::Malformed(_)));
        let mut bytes = c.encode();
        bytes[0] ^= 0xFF;
        assert!(malformed(&bytes));
        // Truncation.
        let good = c.encode();
        assert!(malformed(&good[..good.len() - 3]));
        // NaN smuggling.
        let mut nan = c.encode();
        let off = nan.len() - 8;
        nan[off..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(malformed(&nan));
        // A header claiming 2^30 elements with no payload behind it is
        // refused before anything is reserved.
        let mut huge = good[..16].to_vec();
        for dim in [1u64 << 10, 1 << 10, 1 << 10] {
            huge.extend_from_slice(&dim.to_le_bytes());
        }
        assert!(malformed(&huge));
        // Trailing bytes.
        let mut long = c.encode();
        long.push(0);
        assert!(malformed(&long));
    }

    #[test]
    fn file_roundtrip() {
        let c = sample();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("airshed_ckpt_test_{}.bin", std::process::id()));
        c.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.state.conc, c.state.conc);
        let _ = std::fs::remove_file(&path);
    }
}
