//! Checkpoint / restart.
//!
//! Multi-day episodes on 1990s machine-room schedules needed restart
//! files; ours are also the honest test that the simulation carries **no
//! hidden state across hours**: a run split at any hour boundary must be
//! bit-identical to an uninterrupted one (verified in the integration
//! tests). The format is a small self-describing binary codec — no
//! external serialization crates.

use crate::state::SimState;
use std::io::{self, Read};

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
        let s = &self.state;
        let mut out = Vec::with_capacity(8 + 4 * 8 + s.conc.len() * 8);
        out.extend_from_slice(MAGIC);
        for v in [
            self.next_hour as u64,
            s.species as u64,
            s.layers as u64,
            s.nodes as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &c in &s.conc {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Deserialise from bytes; validates the header and element count.
    pub fn decode(mut bytes: &[u8]) -> io::Result<Checkpoint> {
        let mut magic = [0u8; 8];
        bytes.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::other("not an airshed checkpoint"));
        }
        let mut u = || -> io::Result<u64> {
            let mut b = [0u8; 8];
            bytes.read_exact(&mut b)?;
            Ok(u64::from_le_bytes(b))
        };
        let next_hour = u()? as usize;
        let species = u()? as usize;
        let layers = u()? as usize;
        let nodes = u()? as usize;
        let n = species
            .checked_mul(layers)
            .and_then(|v| v.checked_mul(nodes))
            .ok_or_else(|| io::Error::other("implausible checkpoint shape"))?;
        // The header is the peer's claim; the payload is what arrived.
        // Nothing is reserved until the two agree, byte for byte.
        if n.checked_mul(8) != Some(bytes.len()) {
            return Err(io::Error::other(
                "checkpoint payload does not match its header",
            ));
        }
        let mut conc = Vec::with_capacity(n);
        for _ in 0..n {
            let mut b = [0u8; 8];
            bytes.read_exact(&mut b)?;
            let v = f64::from_le_bytes(b);
            if !v.is_finite() || v < 0.0 {
                return Err(io::Error::other("unphysical concentration in checkpoint"));
            }
            conc.push(v);
        }
        Ok(Checkpoint {
            next_hour,
            state: SimState {
                conc,
                species,
                layers,
                nodes,
            },
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> io::Result<Checkpoint> {
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
        let mut bytes = c.encode();
        bytes[0] ^= 0xFF;
        assert!(Checkpoint::decode(&bytes).is_err());
        // Truncation.
        let good = c.encode();
        assert!(Checkpoint::decode(&good[..good.len() - 3]).is_err());
        // NaN smuggling.
        let mut nan = c.encode();
        let off = nan.len() - 8;
        nan[off..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Checkpoint::decode(&nan).is_err());
        // A header claiming 2^30 elements with no payload behind it is
        // refused before anything is reserved.
        let mut huge = good[..16].to_vec();
        for dim in [1u64 << 10, 1 << 10, 1 << 10] {
            huge.extend_from_slice(&dim.to_le_bytes());
        }
        assert!(Checkpoint::decode(&huge).is_err());
        // Trailing bytes.
        let mut long = c.encode();
        long.push(0);
        assert!(Checkpoint::decode(&long).is_err());
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
