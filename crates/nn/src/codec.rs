//! The versioned `QCFW` model-weight codec.
//!
//! `QCFW` is the third member of the workspace's binary codec family
//! (`QCFS` feature snapshots and `QVEC` knob vectors live in
//! `qcfe_core::snapshot` / the serving store): a framed, checksummed,
//! little-endian container for trained model weights. This module owns the
//! *framing* and the *[`Mlp`] record* — the estimator-level payloads
//! (MSCN / QPPNet state) are composed on top of it by
//! `qcfe_core::model_codec` using the same reader and error taxonomy.
//!
//! # Format specification (version 2)
//!
//! Every `QCFW` file is one frame:
//!
//! ```text
//! offset size  field
//! 0      4     magic "QCFW"
//! 4      4     u32 codec version (writers emit 2; 1..=2 decode)
//! 8      1     u8 payload kind (0 = raw Mlp;
//!              qcfe-core defines 1 = MSCN, 2 = QPPNet)
//! 9      8     u64 payload length in bytes
//! 17     4     u32 CRC-32 (IEEE) over the kind byte followed by the payload
//! 21     …     payload
//! ```
//!
//! All integers and floats are **little-endian**; `f64` values are raw IEEE
//! bit patterns, so weights round-trip *bit-exactly* — a reloaded model
//! produces identical estimates, not merely close ones.
//!
//! Inside a payload, an **Mlp record** is:
//!
//! ```text
//! u32 layer count (≥ 1)
//! per layer:
//!   u32 input dim (≥ 1)
//!   u32 output dim (≥ 1)
//!   u8  activation index (Activation::index)
//!   input*output f64 weights (row-major, the Matrix storage order)
//!   output f64 biases
//! ```
//!
//! Optimizer state is deliberately *not* persisted: the codec captures the
//! inference surface; a reloaded network re-initialises optimizer moments
//! on its first training step.
//!
//! # Versioning policy
//!
//! Mirrors `QCFS`: writers always emit [`WEIGHTS_CODEC_VERSION`]; decoders
//! accept the whole range [`WEIGHTS_CODEC_MIN_VERSION`]`..=`current and
//! reject anything else with [`WeightsCodecError::UnsupportedVersion`]
//! instead of guessing. Versions 1 and 2 share every payload layout, so a
//! version-2 frame is byte-identical to its version-1 form apart from the
//! version field; writers stay on 2 so files (and the store manifests that
//! hash them) do not change under a rolling upgrade. Kinds 3–5 appear in
//! files from older version-2 writers; no decoder in the workspace defines
//! them, so they fail as [`WeightsCodecError::UnknownPayload`]. The CRC
//! means *any* single corrupted byte — header or payload — is rejected
//! with a typed error rather than silently decoding to different weights.

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Magic prefix of every `QCFW` frame.
pub const WEIGHTS_MAGIC: &[u8; 4] = b"QCFW";

/// Current version of the `QCFW` codec (what [`frame`] writes).
pub const WEIGHTS_CODEC_VERSION: u32 = 2;

/// Oldest version [`unframe`] still decodes.
pub const WEIGHTS_CODEC_MIN_VERSION: u32 = 1;

/// Payload kind of a frame holding one raw [`Mlp`] record.
pub const PAYLOAD_MLP: u8 = 0;

/// Size of the fixed frame header (magic + version + kind + length + CRC).
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// Errors produced when decoding persisted model weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightsCodecError {
    /// The buffer did not start with [`WEIGHTS_MAGIC`].
    BadMagic,
    /// The frame's codec version is not understood by this build.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared content was read.
    Truncated,
    /// Extra bytes after the declared content.
    TrailingBytes(usize),
    /// The frame checksum did not match its content (corruption).
    Checksum {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the received content.
        actual: u32,
    },
    /// The frame's payload kind is not one this decoder accepts.
    UnknownPayload(u8),
    /// An activation index outside [`Activation::ALL`].
    UnknownActivation(u8),
    /// The content decoded but violates a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for WeightsCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightsCodecError::BadMagic => write!(f, "not a QCFW weight file (bad magic)"),
            WeightsCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported QCFW codec version {v}")
            }
            WeightsCodecError::Truncated => write!(f, "QCFW buffer truncated"),
            WeightsCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after QCFW content")
            }
            WeightsCodecError::Checksum { expected, actual } => write!(
                f,
                "QCFW checksum mismatch: header says {expected:#010x}, content hashes to {actual:#010x}"
            ),
            WeightsCodecError::UnknownPayload(k) => {
                write!(f, "unknown QCFW payload kind {k}")
            }
            WeightsCodecError::UnknownActivation(i) => {
                write!(f, "unknown activation index {i} in QCFW record")
            }
            WeightsCodecError::Malformed(what) => write!(f, "malformed QCFW record: {what}"),
        }
    }
}

impl std::error::Error for WeightsCodecError {}

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table of the reflected IEEE polynomial, and `CRC32_TABLES[k][i]` is the
/// CRC state after byte `i` is followed by `k` zero bytes, so eight table
/// lookups advance the state over eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial). Slicing-by-8 (Kounavis
/// and Berry, ISCC 2005): eight bytes per step through eight 256-entry
/// tables, then the classic byte-at-a-time step for the last `len % 8`
/// bytes. The result is the same 32 bits the byte-at-a-time loop gives,
/// so every frame, file and digest that carries one is unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    incremental_crc32(0, bytes)
}

/// A bounds-checked little-endian reader over a byte slice. Every take that
/// runs off the end yields [`WeightsCodecError::Truncated`] — decoding
/// never panics on short input.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WeightsCodecError> {
        if self.buf.len() < n {
            return Err(WeightsCodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, WeightsCodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WeightsCodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WeightsCodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Consume a little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WeightsCodecError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Assert the reader is exhausted (else
    /// [`WeightsCodecError::TrailingBytes`]).
    pub fn finish(self) -> Result<(), WeightsCodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WeightsCodecError::TrailingBytes(self.buf.len()))
        }
    }
}

/// Wrap a payload into a checksummed `QCFW` frame.
pub fn frame(payload_kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(WEIGHTS_MAGIC);
    out.extend_from_slice(&WEIGHTS_CODEC_VERSION.to_le_bytes());
    out.push(payload_kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    // CRC covers the kind byte plus the payload, so a flipped kind byte is
    // as detectable as a flipped weight byte.
    let crc = incremental_crc32(crc32(&[payload_kind]), payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental CRC-32: resume a finalised CRC value over more bytes
/// (`crc32(x) == incremental_crc32(0, x)`).
fn incremental_crc32(crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut state = !crc;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = u32::from_le_bytes([block[0], block[1], block[2], block[3]]) ^ state;
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        state = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        state = t0[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    !state
}

/// Validate and strip a `QCFW` frame, returning `(payload kind, payload)`.
///
/// Checks magic, version, declared length (both truncation and trailing
/// bytes) and the CRC; any single corrupted byte anywhere in the frame
/// yields a typed error.
pub fn unframe(bytes: &[u8]) -> Result<(u8, &[u8]), WeightsCodecError> {
    let mut r = Reader::new(bytes);
    if r.take(WEIGHTS_MAGIC.len())? != WEIGHTS_MAGIC {
        return Err(WeightsCodecError::BadMagic);
    }
    let version = r.u32()?;
    if !(WEIGHTS_CODEC_MIN_VERSION..=WEIGHTS_CODEC_VERSION).contains(&version) {
        return Err(WeightsCodecError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    let declared = r.u64()? as usize;
    let expected = r.u32()?;
    if r.remaining() < declared {
        return Err(WeightsCodecError::Truncated);
    }
    if r.remaining() > declared {
        return Err(WeightsCodecError::TrailingBytes(r.remaining() - declared));
    }
    let payload = r.take(declared)?;
    let actual = incremental_crc32(crc32(&[kind]), payload);
    if actual != expected {
        return Err(WeightsCodecError::Checksum { expected, actual });
    }
    Ok((kind, payload))
}

/// Append one [`Mlp`] record (see the module docs for the layout) to a
/// caller-owned buffer.
pub fn write_mlp(mlp: &Mlp, out: &mut Vec<u8>) {
    let layers = mlp.layers();
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for layer in layers {
        out.extend_from_slice(&(layer.input_dim() as u32).to_le_bytes());
        out.extend_from_slice(&(layer.output_dim() as u32).to_le_bytes());
        out.push(layer.activation().index() as u8);
        for w in layer.weights().as_slice() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for b in layer.biases() {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
}

/// Read one [`Mlp`] record written by [`write_mlp`].
pub fn read_mlp(r: &mut Reader<'_>) -> Result<Mlp, WeightsCodecError> {
    let layer_count = r.u32()? as usize;
    if layer_count == 0 {
        return Err(WeightsCodecError::Malformed(
            "an MLP needs at least one layer",
        ));
    }
    let mut layers = Vec::with_capacity(layer_count.min(64));
    let mut prev_out: Option<usize> = None;
    for _ in 0..layer_count {
        let input_dim = r.u32()? as usize;
        let output_dim = r.u32()? as usize;
        if input_dim == 0 || output_dim == 0 {
            return Err(WeightsCodecError::Malformed("zero layer dimension"));
        }
        if let Some(prev) = prev_out {
            if prev != input_dim {
                return Err(WeightsCodecError::Malformed(
                    "consecutive layer dimensions disagree",
                ));
            }
        }
        let act_index = r.u8()?;
        let activation = Activation::from_index(act_index as usize)
            .ok_or(WeightsCodecError::UnknownActivation(act_index))?;
        // Bound the parameter count by what the buffer can still hold
        // before allocating, so a corrupted dimension cannot trigger a
        // huge allocation.
        let weight_count = input_dim
            .checked_mul(output_dim)
            .ok_or(WeightsCodecError::Malformed("layer dimension overflow"))?;
        let needed = weight_count
            .checked_add(output_dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or(WeightsCodecError::Malformed("layer dimension overflow"))?;
        if r.remaining() < needed {
            return Err(WeightsCodecError::Truncated);
        }
        let mut weights = Vec::with_capacity(weight_count);
        for _ in 0..weight_count {
            weights.push(r.f64()?);
        }
        let mut biases = Vec::with_capacity(output_dim);
        for _ in 0..output_dim {
            biases.push(r.f64()?);
        }
        layers.push(DenseLayer::with_parameters(
            Matrix::from_vec(input_dim, output_dim, weights),
            biases,
            activation,
        ));
        prev_out = Some(output_dim);
    }
    Ok(Mlp::from_layers(layers))
}

impl Mlp {
    /// Serialise the network into a standalone framed `QCFW` buffer
    /// ([`PAYLOAD_MLP`]). Weights and biases round-trip bit-exactly.
    pub fn to_weight_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_mlp(self, &mut payload);
        frame(PAYLOAD_MLP, &payload)
    }

    /// Parse a framed `QCFW` buffer written by [`Mlp::to_weight_bytes`].
    pub fn from_weight_bytes(bytes: &[u8]) -> Result<Mlp, WeightsCodecError> {
        let (kind, payload) = unframe(bytes)?;
        if kind != PAYLOAD_MLP {
            return Err(WeightsCodecError::UnknownPayload(kind));
        }
        let mut r = Reader::new(payload);
        let mlp = read_mlp(&mut r)?;
        r.finish()?;
        Ok(mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Bit-exact structural equality between two networks.
    fn assert_mlp_bit_identical(a: &Mlp, b: &Mlp) {
        assert_eq!(a.layer_count(), b.layer_count());
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.input_dim(), lb.input_dim());
            assert_eq!(la.output_dim(), lb.output_dim());
            assert_eq!(la.activation(), lb.activation());
            for (wa, wb) in la.weights().as_slice().iter().zip(lb.weights().as_slice()) {
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
            for (ba, bb) in la.biases().iter().zip(lb.biases()) {
                assert_eq!(ba.to_bits(), bb.to_bits());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental resumption equals one-shot hashing.
        let whole = crc32(b"hello world");
        let resumed = incremental_crc32(crc32(b"hello "), b"world");
        assert_eq!(whole, resumed);
    }

    /// The byte-at-a-time CRC the slicing-by-8 one replaced, with its own
    /// table built bit by bit from the polynomial.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        let mut state = !0u32;
        for &b in bytes {
            state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    /// Slicing-by-8 gives the byte-at-a-time loop's bits for every length
    /// from 0 to 2,048 bytes at every start offset 0–7, and resuming it at
    /// a split point gives the one-shot CRC. Splits are exhaustive up to
    /// 256 bytes (every prefix and suffix phase of the 8-byte blocks) and
    /// a seeded sample of eight per buffer beyond, which keeps the check
    /// quadratic rather than cubic in the length.
    #[test]
    fn sliced_crc32_matches_the_bytewise_loop_and_resumes_at_any_split() {
        use rand::{Rng, RngCore};
        const MAX_LEN: usize = 2048;
        const EXHAUSTIVE_SPLITS_UP_TO: usize = 256;
        let mut r = rng(0xC3C3);
        let bytes: Vec<u8> = (0..MAX_LEN + 8).map(|_| r.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=MAX_LEN {
                let buf = &bytes[offset..offset + len];
                let one_shot = crc32(buf);
                assert_eq!(
                    one_shot,
                    bytewise_crc32(buf),
                    "offset {offset}, length {len}"
                );
                let mut check_split = |split: usize| {
                    let resumed = incremental_crc32(crc32(&buf[..split]), &buf[split..]);
                    assert_eq!(
                        resumed, one_shot,
                        "offset {offset}, length {len}, split {split}"
                    );
                };
                if len <= EXHAUSTIVE_SPLITS_UP_TO {
                    (0..=len).for_each(&mut check_split);
                } else {
                    for _ in 0..8 {
                        check_split(r.gen_range(0..=len));
                    }
                }
            }
        }
    }

    #[test]
    fn mlp_roundtrips_bit_exactly() {
        let mut r = rng(42);
        let mlp = Mlp::with_output_activation(
            &[7, 12, 5, 1],
            Activation::Relu,
            Activation::Softplus,
            &mut r,
        );
        let bytes = mlp.to_weight_bytes();
        let back = Mlp::from_weight_bytes(&bytes).expect("decodes");
        assert_mlp_bit_identical(&mlp, &back);
        // Inference through the reloaded network is bit-identical.
        let x = [0.3, -0.1, 0.7, 0.0, 1.5, -2.0, 0.25];
        assert_eq!(
            mlp.predict_one(&x).to_bits(),
            back.predict_one(&x).to_bits()
        );
    }

    #[test]
    fn every_activation_roundtrips() {
        for (i, act) in Activation::ALL.iter().enumerate() {
            assert_eq!(act.index(), i);
            assert_eq!(Activation::from_index(i), Some(*act));
            let mut r = rng(7 + i as u64);
            let mlp = Mlp::with_output_activation(&[3, 4, 2], *act, *act, &mut r);
            let back = Mlp::from_weight_bytes(&mlp.to_weight_bytes()).expect("decodes");
            assert_mlp_bit_identical(&mlp, &back);
        }
        assert_eq!(Activation::from_index(Activation::ALL.len()), None);
    }

    #[test]
    fn decode_rejects_framing_corruption_with_typed_errors() {
        let mut r = rng(5);
        let mlp = Mlp::new(&[4, 6, 1], Activation::Relu, &mut r);
        let bytes = mlp.to_weight_bytes();

        assert_eq!(
            Mlp::from_weight_bytes(b"QC").unwrap_err(),
            WeightsCodecError::Truncated
        );
        assert_eq!(
            Mlp::from_weight_bytes(b"nope-not-a-weight-file").unwrap_err(),
            WeightsCodecError::BadMagic
        );

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            Mlp::from_weight_bytes(&wrong_version).unwrap_err(),
            WeightsCodecError::UnsupportedVersion(99)
        );

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert_eq!(
            Mlp::from_weight_bytes(&truncated).unwrap_err(),
            WeightsCodecError::Truncated
        );

        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            Mlp::from_weight_bytes(&trailing).unwrap_err(),
            WeightsCodecError::TrailingBytes(3)
        );

        // Flipping any payload byte trips the checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            Mlp::from_weight_bytes(&corrupt),
            Err(WeightsCodecError::Checksum { .. })
        ));

        // Flipping the kind byte is covered by the checksum too.
        let mut wrong_kind = bytes.clone();
        wrong_kind[8] = 7;
        assert!(matches!(
            Mlp::from_weight_bytes(&wrong_kind),
            Err(WeightsCodecError::Checksum { .. })
        ));

        // A well-formed frame of the wrong kind is rejected by kind.
        let reframed = {
            let (_, payload) = unframe(&bytes).expect("valid");
            frame(9, payload)
        };
        assert_eq!(
            Mlp::from_weight_bytes(&reframed).unwrap_err(),
            WeightsCodecError::UnknownPayload(9)
        );
    }

    #[test]
    fn decode_rejects_structural_corruption_without_panicking() {
        // Record-level corruption is re-framed with a fresh checksum so it
        // reaches the structural validators.
        let mut r = rng(6);
        let mlp = Mlp::new(&[3, 5, 1], Activation::Tanh, &mut r);
        let mut payload = Vec::new();
        write_mlp(&mlp, &mut payload);

        // Zero layers.
        let mut zero_layers = payload.clone();
        zero_layers[..4].copy_from_slice(&0u32.to_le_bytes());
        let framed = frame(PAYLOAD_MLP, &zero_layers);
        assert_eq!(
            Mlp::from_weight_bytes(&framed).unwrap_err(),
            WeightsCodecError::Malformed("an MLP needs at least one layer")
        );

        // A huge declared dimension must fail cleanly, not allocate.
        let mut huge = payload.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let framed = frame(PAYLOAD_MLP, &huge);
        assert!(Mlp::from_weight_bytes(&framed).is_err());

        // Unknown activation index.
        let mut bad_act = payload.clone();
        bad_act[12] = 200; // layer_count(4) + in(4) + out(4) → activation byte
        let framed = frame(PAYLOAD_MLP, &bad_act);
        assert_eq!(
            Mlp::from_weight_bytes(&framed).unwrap_err(),
            WeightsCodecError::UnknownActivation(200)
        );

        // Mismatched consecutive dimensions.
        let mut mismatched = payload;
        // Second layer's input dim lives after layer 1's record:
        // 4 (count) + 4+4+1 + (3*5 + 5) * 8 bytes.
        let layer2_input = 4 + 9 + (3 * 5 + 5) * 8;
        mismatched[layer2_input..layer2_input + 4].copy_from_slice(&4u32.to_le_bytes());
        let framed = frame(PAYLOAD_MLP, &mismatched);
        assert!(matches!(
            Mlp::from_weight_bytes(&framed),
            Err(WeightsCodecError::Malformed(_) | WeightsCodecError::Truncated)
        ));
    }

    #[test]
    fn version_1_frames_still_decode() {
        // A v1 frame is a v2 frame with the version field rewritten: the
        // plain-Mlp payload layout never changed. Emulate a pre-upgrade
        // file on disk and decode it with today's code.
        let mut r = rng(14);
        let mlp = Mlp::new(&[4, 7, 1], Activation::Relu, &mut r);
        let mut v1 = mlp.to_weight_bytes();
        assert_eq!(
            u32::from_le_bytes(v1[4..8].try_into().unwrap()),
            WEIGHTS_CODEC_VERSION
        );
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let back = Mlp::from_weight_bytes(&v1).expect("v1 decodes");
        assert_mlp_bit_identical(&mlp, &back);

        // Versions outside the accepted range are still rejected.
        let mut v0 = v1.clone();
        v0[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Mlp::from_weight_bytes(&v0).unwrap_err(),
            WeightsCodecError::UnsupportedVersion(0)
        );
        let mut v3 = v1;
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            Mlp::from_weight_bytes(&v3).unwrap_err(),
            WeightsCodecError::UnsupportedVersion(3)
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WeightsCodecError::BadMagic.to_string().contains("QCFW"));
        assert!(WeightsCodecError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(WeightsCodecError::Checksum {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(WeightsCodecError::UnknownPayload(7)
            .to_string()
            .contains('7'));
        assert!(WeightsCodecError::Malformed("x").to_string().contains('x'));
    }
}
