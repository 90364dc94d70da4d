//! The one byte codec. Every number that leaves a process — a fabric
//! frame, a checkpoint file, the figure harness's profile cache — is
//! written by [`Enc`] and read back by [`Dec`], the role PVM's
//! pack/unpack plays for the paper's §6 foreign module.
//!
//! **Layout.** Integers are fixed-width little-endian (`usize` as
//! `u64`) and an `f64` is its raw bits, so every number round-trips
//! bit-exactly. `bool` and enum tags are one byte; strings and vectors
//! are a `u32` count, then the elements; an `Option` is a `bool`, then
//! the value; arrays and boxes are their elements alone. A type's layout
//! is declared once, by [`codec!`](macro@crate::codec) listing its
//! fields (or an enum's tagged variants) in order, and both the writer
//! and the reader come from that one list. Rust's orphan rule decides where each list lives:
//! this crate's types, and the `MachineProfile`, `CommStepRecord` and
//! `YbOptions` it carries, are declared at the bottom of this file; `airshed-server`
//! declares `ResumePoint`, and `airshed-fabric` its job, message and
//! frame header. A file format is a value behind an eight-byte magic
//! ([`encode_magic`]): the checkpoint's `ASHCKPT1` and the figure
//! cache's `ASHPRF09`. Nothing else in the workspace turns numbers into
//! bytes (`scripts/ci.sh` checks).
//!
//! **Bounded decoding.** Every read is checked, so a truncated or
//! corrupt input is a typed [`WireError`], never a panic. A count is
//! checked against the bytes still unread (each element takes at least
//! [`Codec::MIN_BYTES`]) before anything is reserved, and a vector
//! never reserves more memory than there are unread bytes, growing past
//! that only as elements actually decode. Decoding `n` bytes therefore
//! holds at most `(D + 2r)·n` bytes at once, where `D` is the deepest
//! nesting of vectors and `r` the largest `size_of` over `MIN_BYTES` of
//! a vector element or boxed value: each open vector has reserved at
//! most the unread bytes, and a grown one is at most twice its
//! elements, which cost at most `r` bytes per byte they were encoded in.
//! `crates/fabric/tests/codec.rs` checks that bound with a counting
//! allocator on every decoder.

use crate::checkpoint::Checkpoint;
use crate::config::{DatasetChoice, SimConfig, Weather};
use crate::driver::{ChemLayout, PlanMemoStats};
use crate::obs::dist::TraceContext;
use crate::predict::{CommOccurrences, PerfModel};
use crate::profile::{HourProfile, StepProfile, WorkProfile};
use crate::report::{CopyBytes, LatencyAnatomy, RunReport};
use crate::state::{HourSummary, SimState};
use airshed_chem::youngboris::{AsymptoticForm, YbOptions};
use airshed_hpf::redist::labels;
use airshed_machine::accounting::CommStepRecord;
use airshed_machine::MachineProfile;
use std::collections::BTreeSet;
use std::io;
use std::sync::{Mutex, PoisonError};

/// Everything that can go wrong reading bytes: a frame off a socket
/// or a file off a disk.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream on a frame boundary (clean EOF).
    Closed,
    /// The stream ended inside a frame: `got` of `expected` bytes.
    Truncated { expected: usize, got: usize },
    /// The first two bytes of a frame were not its magic.
    BadMagic([u8; 2]),
    /// A frame header announced a payload larger than the frame cap.
    Oversized(u32),
    /// The bytes arrived whole but do not decode.
    Malformed(&'static str),
    /// A tag byte no variant claims.
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
            WireError::UnknownTag(t) => write!(f, "unknown tag {t}"),
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

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    /// A `u32` length, then the bytes themselves.
    pub fn bytes(&mut self, b: &[u8]) {
        (b.len() as u32).enc(self);
        self.buf.extend_from_slice(b);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder over one borrowed buffer.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("payload underrun"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes, as an array.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.slice(N)?);
        Ok(out)
    }

    /// A `u32` length, then that many bytes, borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.slice(n)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A `u32` element count, refused when the unread bytes could not
    /// hold that many elements of at least `min_elem_bytes` each.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = u32::dec(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Malformed("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Refuse bytes left over after the value.
    pub fn done(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in payload"))
        }
    }
}

/// A type with one byte layout, written by `enc` and read by `dec`.
pub trait Codec: Sized {
    /// The fewest bytes any encoding of the type takes: what an element
    /// count is checked against before anything is reserved for it.
    const MIN_BYTES: usize;
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError>;
}

/// An enum whose variant is named by a one-byte tag. As a [`Codec`]
/// value the tag leads its fields; a wire frame carries the tag in its
/// header and the fields as its payload.
pub trait Tagged: Sized {
    fn tag(&self) -> u8;
    /// The variant's fields, without the tag.
    fn enc_fields(&self, e: &mut Enc);
    /// The fields of the variant `tag` names; an unclaimed tag is
    /// [`WireError::UnknownTag`].
    fn dec_fields(tag: u8, d: &mut Dec<'_>) -> Result<Self, WireError>;
}

/// `MIN_BYTES` of the field `_field` selects: lets
/// [`codec!`](macro@crate::codec) sum a struct's minimum from its field
/// names alone.
pub const fn min_bytes<S, T: Codec>(_field: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Declare a type's byte layout once; both halves of its [`Codec`] come
/// from the one list.
///
/// A struct lists every field in layout order (the reader builds it
/// with a struct literal, so a field left out does not compile), with
/// an optional cross-field check run after decoding:
///
/// ```ignore
/// codec! { TraceContext { trace_id, parent_span, job_id } }
/// codec! { PerfModel { shape, ..., chemistry_per_item }, validate = |m| ... }
/// ```
///
/// An enum lists each variant behind its tag, naming tuple or struct
/// fields in order, and also gets [`Tagged`]:
///
/// ```ignore
/// codec! { enum ChemLayout { 0 => Block, 1 => Cyclic, 2 => BlockCyclic(b) } }
/// ```
#[macro_export]
macro_rules! codec {
    (enum $ty:path {
        $($tag:expr => $variant:ident $(($($tf:ident),*))? $({$($sf:ident),*})?),* $(,)?
    }) => {
        #[allow(unused_variables)]
        impl $crate::codec::Tagged for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => $tag,)*
                }
            }
            fn enc_fields(&self, e: &mut $crate::codec::Enc) {
                match self {
                    $(Self::$variant $(($($tf),*))? $({$($sf),*})? => {
                        $($($crate::codec::Codec::enc($tf, e);)*)?
                        $($($crate::codec::Codec::enc($sf, e);)*)?
                    })*
                }
            }
            fn dec_fields(
                tag: u8,
                d: &mut $crate::codec::Dec<'_>,
            ) -> Result<Self, $crate::codec::WireError> {
                $(if tag == $tag {
                    $($(let $tf = $crate::codec::Codec::dec(d)?;)*)?
                    $($(let $sf = $crate::codec::Codec::dec(d)?;)*)?
                    return Ok(Self::$variant $(($($tf),*))? $({$($sf),*})?);
                })*
                Err($crate::codec::WireError::UnknownTag(tag))
            }
        }
        impl $crate::codec::Codec for $ty {
            const MIN_BYTES: usize = 1;
            fn enc(&self, e: &mut $crate::codec::Enc) {
                $crate::codec::Codec::enc(&$crate::codec::Tagged::tag(self), e);
                $crate::codec::Tagged::enc_fields(self, e);
            }
            fn dec(d: &mut $crate::codec::Dec<'_>) -> Result<Self, $crate::codec::WireError> {
                let tag = <u8 as $crate::codec::Codec>::dec(d)?;
                $crate::codec::Tagged::dec_fields(tag, d)
            }
        }
    };
    ($ty:path { $($field:ident),* $(,)? } $(, validate = $check:expr)?) => {
        impl $crate::codec::Codec for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::codec::min_bytes(|s: &Self| &s.$field))*;
            fn enc(&self, e: &mut $crate::codec::Enc) {
                $($crate::codec::Codec::enc(&self.$field, e);)*
            }
            fn dec(d: &mut $crate::codec::Dec<'_>) -> Result<Self, $crate::codec::WireError> {
                let value = Self { $($field: $crate::codec::Codec::dec(d)?),* };
                $(
                    let check: fn(&Self) -> Result<(), $crate::codec::WireError> = $check;
                    check(&value)?;
                )?
                Ok(value)
            }
        }
    };
}

/// Fixed-width little-endian numbers: the one place bytes become
/// numbers and back.
macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn enc(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn dec(d: &mut Dec<'_>) -> Result<$t, WireError> {
                d.take().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
little_endian!(u8, u32, u64, f64);

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        u8::from(*self).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<bool, WireError> {
        match u8::dec(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool out of range")),
        }
    }
}

impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn enc(&self, e: &mut Enc) {
        (*self as u64).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<usize, WireError> {
        usize::try_from(u64::dec(d)?).map_err(|_| WireError::Malformed("usize overflow"))
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("string not utf-8"))
}

impl Codec for String {
    const MIN_BYTES: usize = 4;
    fn enc(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
    fn dec(d: &mut Dec<'_>) -> Result<String, WireError> {
        utf8(d.bytes()?).map(str::to_owned)
    }
}

/// A dataset, machine or redistribution name, decoded through
/// [`intern`]: the same bytes as a `String`.
impl Codec for &'static str {
    const MIN_BYTES: usize = 4;
    fn enc(&self, e: &mut Enc) {
        e.bytes(self.as_bytes());
    }
    fn dec(d: &mut Dec<'_>) -> Result<&'static str, WireError> {
        intern(utf8(d.bytes()?)?)
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        for x in self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<[T; N], WireError> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = T::dec(d)?;
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Box<T>, WireError> {
        T::dec(d).map(Box::new)
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn enc(&self, e: &mut Enc) {
        self.is_some().enc(e);
        if let Some(v) = self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Option<T>, WireError> {
        Ok(if bool::dec(d)? {
            Some(T::dec(d)?)
        } else {
            None
        })
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn enc(&self, e: &mut Enc) {
        (self.len() as u32).enc(e);
        for x in self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Vec<T>, WireError> {
        let n = d.count(T::MIN_BYTES)?;
        let mut v = Vec::new();
        while v.len() < n {
            if v.len() == v.capacity() {
                // As many as the unread bytes could fill, or double once
                // that many have decoded — never the count's word alone.
                let fits = d.remaining() / std::mem::size_of::<T>().max(1);
                v.reserve_exact(fits.max(v.len()).clamp(1, n - v.len()));
            }
            v.push(T::dec(d)?);
        }
        Ok(v)
    }
}

/// `bytes` as exactly one `T`: nothing may be left over.
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    let value = T::dec(&mut d)?;
    d.done()?;
    Ok(value)
}

/// One value's bytes.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    value.enc(&mut e);
    e.finish()
}

/// `value` behind an eight-byte magic naming its format and version:
/// the layout of every file this workspace writes.
pub fn encode_magic<T: Codec>(magic: &[u8; 8], value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    magic.enc(&mut e);
    value.enc(&mut e);
    e.finish()
}

/// Inverse of [`encode_magic`]: anything but `magic` followed by
/// exactly one well-formed value is an error.
pub fn decode_magic<T: Codec>(magic: &[u8; 8], bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Dec::new(bytes);
    if <[u8; 8]>::dec(&mut d)? != *magic {
        return Err(WireError::Malformed(
            "another format, or a stale version of it",
        ));
    }
    let value = T::dec(&mut d)?;
    d.done()?;
    Ok(value)
}

/// Names the codebase itself gives datasets, machines and the four
/// redistributions: decoding one allocates nothing.
pub const CANONICAL_NAMES: [&str; 11] = [
    "LA",
    "NE",
    "TINY",
    "TEST",
    "Cray T3E",
    "Cray T3D",
    "Intel Paragon",
    labels::REPL_TO_TRANS,
    labels::TRANS_TO_CHEM,
    labels::CHEM_TO_REPL,
    labels::TRANS_TO_REPL,
];
/// Most distinct non-canonical names one process will intern, and the
/// longest: together they bound what hostile bytes can make it keep.
pub const MAX_INTERNED_NAMES: usize = 64;
const MAX_INTERNED_NAME_LEN: usize = 64;

/// Intern a decoded dataset, machine or redistribution name into the
/// `&'static str` the profile and report structs carry. A name outside
/// the canonical ones (a test fixture, a custom machine) is leaked once
/// and found again on every later decode; past the caps a new name is a
/// decode error.
pub fn intern(name: &str) -> Result<&'static str, WireError> {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if let Some(canonical) = CANONICAL_NAMES.iter().find(|c| **c == name) {
        return Ok(canonical);
    }
    if name.len() > MAX_INTERNED_NAME_LEN {
        return Err(WireError::Malformed("name too long"));
    }
    // An insert leaves the set valid at every step, so a poisoned lock
    // still guards a usable set.
    let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(known) = interned.get(name) {
        return Ok(known);
    }
    if interned.len() >= MAX_INTERNED_NAMES {
        return Err(WireError::Malformed("too many distinct names"));
    }
    let leaked: &'static str = Box::leak(name.into());
    interned.insert(leaked);
    Ok(leaked)
}

// ---------------------------------------------------------------------------
// Layouts of this crate's types (and the three foreign ones it carries)
// ---------------------------------------------------------------------------

codec! { enum DatasetChoice { 0 => LosAngeles, 1 => NorthEast, 2 => Tiny(columns) } }
codec! { enum Weather { 0 => Ventilated, 1 => Stagnation } }
codec! { enum AsymptoticForm { 0 => Rational, 1 => Exponential } }
codec! { enum ChemLayout { 0 => Block, 1 => Cyclic, 2 => BlockCyclic(b) } }
codec! { MachineProfile { name, rate, latency, byte_cost, copy_cost, word_size } }
codec! { YbOptions { eps, atol, h_min, h_max, stiff_ratio, form } }
codec! {
    SimConfig { dataset, machine, p, hours, start_hour, kh, chem_opts, weather, emission_scale },
    validate = |c| c.validate().map_err(WireError::Malformed)
}
// Three fixed u64s, no option prefix: an untraced run carries the
// all-zero context, so the frame layout never forks on tracing.
codec! { TraceContext { trace_id, parent_span, job_id } }
codec! { PlanMemoStats { hits, misses, entries } }
codec! { CommOccurrences { repl_to_trans, trans_to_chem, chem_to_repl, trans_to_repl } }
codec! {
    PerfModel {
        shape, seq_io, seq_transport, seq_chemistry, seq_aerosol, steps, hours, occurrences,
        transport_per_item, chemistry_per_item,
    },
    // Layout pricing folds these per layer and per column.
    validate = |m| {
        let shape = [m.transport_per_item.len(), m.chemistry_per_item.len()];
        if shape == [m.shape[1], m.shape[2]] {
            Ok(())
        } else {
            Err(WireError::Malformed("per-item work does not match shape"))
        }
    }
}
codec! { StepProfile { transport1, transport2, chemistry, aerosol } }
codec! { HourProfile { input_work, pretrans_work, output_work, input_bytes, steps, surface } }
codec! { WorkProfile { dataset, shape, hours, summaries } }
codec! { HourSummary { hour, max_o3, mean_o3, mean_nox, mean_total_n } }
codec! { CommStepRecord { label, total_seconds, count } }
codec! {
    LatencyAnatomy {
        queued_ms, exec_us, wire_us, reply_us, end_to_end_ms, hours, segments, stolen, failed_over,
    }
}
codec! { CopyBytes { redist_local, soa_staging, result_serialization } }
codec! {
    RunReport {
        dataset, machine, p, hours, total_seconds, io_seconds, transport_seconds,
        chemistry_seconds, communication_seconds, popexp_seconds, comm_steps, summaries, backend,
        predicted_seconds, plan_layouts, plan_delta_seconds, dedup_saved_bytes,
        dedup_saved_seconds, anatomy, copy_bytes,
    }
}

/// The one layout [`codec!`](macro@crate::codec) cannot state: a
/// checkpoint's concentrations take their count from its shape, not
/// from a prefix.
/// Next hour, species, layers and nodes, then every concentration —
/// finite and non-negative, or the checkpoint is refused.
impl Codec for Checkpoint {
    const MIN_BYTES: usize = 32;
    fn enc(&self, e: &mut Enc) {
        let s = &self.state;
        // Megabytes on the paper's grids, and kept by callers that
        // compare them: reserve exactly, once.
        e.buf.reserve(32 + 8 * s.conc.len());
        [self.next_hour, s.species, s.layers, s.nodes].enc(e);
        for c in &s.conc {
            c.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Checkpoint, WireError> {
        let [next_hour, species, layers, nodes] = <[usize; 4]>::dec(d)?;
        let n = species
            .checked_mul(layers)
            .and_then(|v| v.checked_mul(nodes))
            .ok_or(WireError::Malformed("implausible checkpoint shape"))?;
        // The header is the peer's claim; the payload is what arrived.
        // Nothing is reserved until the two agree.
        if n.checked_mul(8).is_none_or(|bytes| bytes > d.remaining()) {
            return Err(WireError::Malformed(
                "checkpoint payload does not match its header",
            ));
        }
        let mut conc = Vec::with_capacity(n);
        for _ in 0..n {
            let c = f64::dec(d)?;
            if !c.is_finite() || c < 0.0 {
                return Err(WireError::Malformed(
                    "unphysical concentration in checkpoint",
                ));
            }
            conc.push(c);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_bit_exactly() {
        let mut e = Enc::new();
        200u8.enc(&mut e);
        true.enc(&mut e);
        (u32::MAX - 1).enc(&mut e);
        (1u64 << 60).enc(&mut e);
        (0.1f64 + 0.2).enc(&mut e); // not representable exactly: bits must survive
        vec![f64::MIN_POSITIVE, -0.0, 3.5e300].enc(&mut e);
        "Cray T3E".to_string().enc(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(u8::dec(&mut d).unwrap(), 200);
        assert!(bool::dec(&mut d).unwrap());
        assert_eq!(u32::dec(&mut d).unwrap(), u32::MAX - 1);
        assert_eq!(u64::dec(&mut d).unwrap(), 1 << 60);
        assert_eq!(
            f64::dec(&mut d).unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        let v = Vec::<f64>::dec(&mut d).unwrap();
        assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(String::dec(&mut d).unwrap(), "Cray T3E");
        d.done().unwrap();
    }

    #[test]
    fn decoder_rejects_garbage_instead_of_panicking() {
        // Truncated payloads.
        assert!(decode::<u32>(&[1, 2]).is_err());
        assert!(decode::<f64>(&[]).is_err());
        // A length prefix claiming more elements than bytes remain.
        assert!(matches!(
            decode::<Vec<f64>>(&encode(&1_000_000u32)),
            Err(WireError::Malformed(_))
        ));
        // Bad bool, bad utf-8, an unclaimed tag, trailing bytes.
        assert!(decode::<bool>(&[7]).is_err());
        let mut e = Enc::new();
        e.bytes(&[0xff, 0xfe]);
        assert!(decode::<String>(&e.finish()).is_err());
        assert!(matches!(
            decode::<Weather>(&[2]),
            Err(WireError::UnknownTag(2))
        ));
        assert!(Dec::new(&[0]).done().is_err());
    }
}
