//! Canonical binary serialization for [`ProgramImage`] — the on-disk
//! normal form the artifact store (`udp-store`) persists and reloads.
//!
//! The encoding is deliberately dumb: fixed field order, little-endian
//! integers, length-prefixed vectors, no compression, no reflection.
//! Two properties matter and both are load-bearing for the store:
//!
//! 1. **Determinism** — the same image always encodes to the same
//!    bytes, so "byte-identical to a fresh assembly" is a meaningful
//!    integrity check and content addressing is stable.
//! 2. **Total decoding** — every malformed input byte string decodes to
//!    a typed [`SerialError`], never a panic and never an unbounded
//!    allocation (all lengths are capped before any `Vec` is sized).
//!
//! The resource certificate travels inside the image
//! ([`ProgramImage::cert`]) and is encoded in full, including the
//! structured [`CostBlocker`] list, so a reloaded artifact carries
//! exactly the bounds the verifier certified at build time.

use crate::cert::{CostBlocker, CostMetric, ResourceCert};
use crate::image::{LaneInit, LayoutStats, ProgramImage};
use udp_isa::transition::ExecKind;

/// Version tag of the serialization format **and** of the ISA-level
/// layout semantics it captures. Bump on any change to the encoding,
/// to `ProgramImage`'s fields, or to the assembler's placement rules —
/// the artifact store mixes it into content hashes, so a bump cleanly
/// invalidates every cached artifact instead of misdecoding them.
pub const FORMAT_VERSION: u32 = 2;

/// Hard cap on the image word vector: the whole device memory
/// (64 banks x 4096 words). Anything larger is hostile input.
const MAX_WORDS: usize = udp_isa::NUM_BANKS * udp_isa::mem::BANK_WORDS;
/// Cap on cost blockers; real certificates carry a handful.
const MAX_BLOCKERS: usize = 65_536;
/// Cap on one blocker's reason string, bytes.
const MAX_REASON: usize = 4_096;

/// Typed decode failures. Every variant names what was being read, so
/// a corrupt artifact produces an actionable message instead of a
/// generic "bad file".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// The buffer ended before `what` could be read.
    Truncated {
        /// The field being decoded when bytes ran out.
        what: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The field the tag belongs to.
        what: &'static str,
        /// The offending tag value.
        tag: u32,
    },
    /// A length prefix exceeded its structural cap (refused before
    /// allocation).
    TooLong {
        /// The vector being sized.
        what: &'static str,
        /// The claimed length.
        len: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// Decoding succeeded but bytes remain — a concatenation or
    /// truncation artifact, refused rather than silently ignored.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Truncated { what } => {
                write!(f, "truncated image encoding while reading {what}")
            }
            SerialError::BadTag { what, tag } => {
                write!(f, "invalid {what} tag {tag:#x} in image encoding")
            }
            SerialError::TooLong { what, len, cap } => {
                write!(f, "{what} length {len} exceeds the {cap} cap")
            }
            SerialError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete image")
            }
        }
    }
}

impl std::error::Error for SerialError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SerialError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SerialError::Truncated { what })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SerialError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SerialError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SerialError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A `u32` length prefix, bounds-checked against `cap` *and*
    /// against the bytes actually remaining (each element needs at
    /// least `elem_bytes`), so a hostile length never sizes a Vec.
    fn len(
        &mut self,
        what: &'static str,
        cap: usize,
        elem_bytes: usize,
    ) -> Result<usize, SerialError> {
        let len = self.u32(what)? as usize;
        if len > cap {
            return Err(SerialError::TooLong {
                what,
                len: len as u64,
                cap: cap as u64,
            });
        }
        if len.saturating_mul(elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(SerialError::Truncated { what });
        }
        Ok(len)
    }

    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, SerialError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(SerialError::BadTag {
                what,
                tag: u32::from(tag),
            }),
        }
    }
}

fn put_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_opt_u64(v: &mut Vec<u8>, x: Option<u64>) {
    match x {
        None => v.push(0),
        Some(x) => {
            v.push(1);
            put_u64(v, x);
        }
    }
}

fn exec_kind_tag(k: ExecKind) -> u8 {
    match k {
        ExecKind::Consume => 0,
        ExecKind::Flagged => 1,
        ExecKind::Pass => 2,
        ExecKind::Halt => 3,
    }
}

fn exec_kind_from(tag: u8) -> Result<ExecKind, SerialError> {
    match tag {
        0 => Ok(ExecKind::Consume),
        1 => Ok(ExecKind::Flagged),
        2 => Ok(ExecKind::Pass),
        3 => Ok(ExecKind::Halt),
        tag => Err(SerialError::BadTag {
            what: "entry kind",
            tag: u32::from(tag),
        }),
    }
}

fn encode_cert(v: &mut Vec<u8>, cert: &ResourceCert) {
    put_opt_u64(v, cert.max_cycles_per_byte);
    put_u64(v, cert.base_cycles);
    match cert.min_bytes_per_cycle_progress {
        None => v.push(0),
        Some((b, c)) => {
            v.push(1);
            put_u64(v, b);
            put_u64(v, c);
        }
    }
    put_opt_u64(v, cert.max_output_expansion);
    put_u64(v, cert.base_output_bytes);
    put_u32(v, cert.max_loop_nest);
    put_u32(v, cert.unbounded.len() as u32);
    for b in &cert.unbounded {
        v.push(match b.metric {
            CostMetric::Cycles => 0,
            CostMetric::Output => 1,
        });
        match b.addr {
            None => v.push(0),
            Some(a) => {
                v.push(1);
                put_u32(v, a);
            }
        }
        let reason = b.reason.as_bytes();
        let reason = &reason[..reason.len().min(MAX_REASON)];
        put_u32(v, reason.len() as u32);
        v.extend_from_slice(reason);
    }
}

fn decode_cert(r: &mut Reader<'_>) -> Result<ResourceCert, SerialError> {
    let max_cycles_per_byte = r.opt_u64("cert cycle ratio")?;
    let base_cycles = r.u64("cert cycle base")?;
    let min_bytes_per_cycle_progress = match r.u8("cert progress ratio")? {
        0 => None,
        1 => Some((
            r.u64("cert progress bytes")?,
            r.u64("cert progress cycles")?,
        )),
        tag => {
            return Err(SerialError::BadTag {
                what: "cert progress ratio",
                tag: u32::from(tag),
            })
        }
    };
    let max_output_expansion = r.opt_u64("cert output ratio")?;
    let base_output_bytes = r.u64("cert output base")?;
    let max_loop_nest = r.u32("cert loop nest")?;
    let n = r.len("cert blockers", MAX_BLOCKERS, 7)?;
    let mut unbounded = Vec::with_capacity(n);
    for _ in 0..n {
        let metric = match r.u8("blocker metric")? {
            0 => CostMetric::Cycles,
            1 => CostMetric::Output,
            tag => {
                return Err(SerialError::BadTag {
                    what: "blocker metric",
                    tag: u32::from(tag),
                })
            }
        };
        let addr = match r.u8("blocker addr")? {
            0 => None,
            1 => Some(r.u32("blocker addr")?),
            tag => {
                return Err(SerialError::BadTag {
                    what: "blocker addr",
                    tag: u32::from(tag),
                })
            }
        };
        let rlen = r.len("blocker reason", MAX_REASON, 1)?;
        let reason = String::from_utf8_lossy(r.take(rlen, "blocker reason")?).into_owned();
        unbounded.push(CostBlocker {
            metric,
            addr,
            reason,
        });
    }
    Ok(ResourceCert {
        max_cycles_per_byte,
        base_cycles,
        min_bytes_per_cycle_progress,
        max_output_expansion,
        base_output_bytes,
        max_loop_nest,
        unbounded,
    })
}

/// Encodes `image` into the canonical byte form. Deterministic: equal
/// images (field-wise) produce equal bytes.
pub fn encode_image(image: &ProgramImage) -> Vec<u8> {
    let mut v = Vec::with_capacity(32 + image.words.len() * 4 + image.state_bases.len() * 4);
    put_u32(&mut v, image.words.len() as u32);
    for &w in &image.words {
        put_u32(&mut v, w);
    }
    put_u32(&mut v, image.entry_base);
    v.push(exec_kind_tag(image.entry_kind));
    v.push(image.init.symbol_bits);
    put_u32(&mut v, image.init.abase);
    v.push(image.init.ascale);
    put_u32(&mut v, image.init.wbase);
    put_u32(&mut v, image.state_bases.len() as u32);
    for &b in &image.state_bases {
        put_u32(&mut v, b);
    }
    put_u64(&mut v, image.stats.span_words as u64);
    put_u64(&mut v, image.stats.words_used as u64);
    put_u64(&mut v, image.stats.n_states as u64);
    put_u64(&mut v, image.stats.n_transition_words as u64);
    put_u64(&mut v, image.stats.n_action_words as u64);
    put_u64(&mut v, image.stats.direct_region_words as u64);
    put_u64(&mut v, image.stats.scaled_region_words as u64);
    v.push(u8::from(image.executable));
    match &image.cert {
        None => v.push(0),
        Some(cert) => {
            v.push(1);
            encode_cert(&mut v, cert);
        }
    }
    v
}

/// Decodes a byte string produced by [`encode_image`]. Total: every
/// input either decodes or returns a typed [`SerialError`].
pub fn decode_image(buf: &[u8]) -> Result<ProgramImage, SerialError> {
    let mut r = Reader { buf, pos: 0 };
    let n_words = r.len("image words", MAX_WORDS, 4)?;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.u32("image word")?);
    }
    let entry_base = r.u32("entry base")?;
    let entry_kind = exec_kind_from(r.u8("entry kind")?)?;
    let init = LaneInit {
        symbol_bits: r.u8("init symbol bits")?,
        abase: r.u32("init abase")?,
        ascale: r.u8("init ascale")?,
        wbase: r.u32("init wbase")?,
    };
    let n_bases = r.len("state bases", MAX_WORDS, 4)?;
    let mut state_bases = Vec::with_capacity(n_bases);
    for _ in 0..n_bases {
        state_bases.push(r.u32("state base")?);
    }
    let stats = LayoutStats {
        span_words: r.u64("span words")? as usize,
        words_used: r.u64("words used")? as usize,
        n_states: r.u64("state count")? as usize,
        n_transition_words: r.u64("transition words")? as usize,
        n_action_words: r.u64("action words")? as usize,
        direct_region_words: r.u64("direct region")? as usize,
        scaled_region_words: r.u64("scaled region")? as usize,
    };
    let executable = match r.u8("executable flag")? {
        0 => false,
        1 => true,
        tag => {
            return Err(SerialError::BadTag {
                what: "executable flag",
                tag: u32::from(tag),
            })
        }
    };
    let cert = match r.u8("cert presence")? {
        0 => None,
        1 => Some(decode_cert(&mut r)?),
        tag => {
            return Err(SerialError::BadTag {
                what: "cert presence",
                tag: u32::from(tag),
            })
        }
    };
    if r.pos != buf.len() {
        return Err(SerialError::Trailing {
            extra: buf.len() - r.pos,
        });
    }
    Ok(ProgramImage {
        words,
        entry_base,
        entry_kind,
        init,
        state_bases,
        stats,
        executable,
        cert,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayoutOptions, ProgramBuilder, Target};
    use udp_isa::action::{Action, Opcode};
    use udp_isa::Reg;

    fn sample() -> ProgramImage {
        let mut b = ProgramBuilder::new();
        let s = b.add_consuming_state();
        b.set_entry(s);
        b.labeled_arc(
            s,
            b'a' as u16,
            Target::State(s),
            vec![Action::imm(Opcode::EmitB, Reg::R0, Reg::R0, b'x' as u16)],
        );
        b.fallback_arc(s, Target::Halt, vec![]);
        b.assemble(&LayoutOptions::default()).unwrap()
    }

    fn assert_images_equal(a: &ProgramImage, b: &ProgramImage) {
        assert_eq!(a.words, b.words);
        assert_eq!(a.entry_base, b.entry_base);
        assert_eq!(a.entry_kind, b.entry_kind);
        assert_eq!(a.init, b.init);
        assert_eq!(a.state_bases, b.state_bases);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.executable, b.executable);
        assert_eq!(a.cert, b.cert);
    }

    #[test]
    fn round_trips_without_cert() {
        let img = sample();
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).unwrap();
        assert_images_equal(&img, &back);
        assert_eq!(bytes, encode_image(&back), "re-encoding must be stable");
    }

    #[test]
    fn round_trips_with_full_cert() {
        let mut img = sample();
        img.cert = Some(ResourceCert {
            max_cycles_per_byte: Some(7),
            base_cycles: 3,
            min_bytes_per_cycle_progress: Some((1, 7)),
            max_output_expansion: None,
            base_output_bytes: 9,
            max_loop_nest: 2,
            unbounded: vec![CostBlocker {
                metric: CostMetric::Output,
                addr: Some(0x1040),
                reason: "emits without consuming".into(),
            }],
        });
        let back = decode_image(&encode_image(&img)).unwrap();
        assert_images_equal(&img, &back);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = encode_image(&sample());
        for cut in 0..bytes.len() {
            let err = decode_image(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SerialError::Truncated { .. } | SerialError::Trailing { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocation() {
        // A words length of u32::MAX must not size a Vec.
        let mut v = Vec::new();
        put_u32(&mut v, u32::MAX);
        assert!(matches!(
            decode_image(&v).unwrap_err(),
            SerialError::TooLong { .. }
        ));
        // A plausible length with no bytes behind it is truncation.
        let mut v = Vec::new();
        put_u32(&mut v, 1000);
        assert!(matches!(
            decode_image(&v).unwrap_err(),
            SerialError::Truncated { .. }
        ));
    }

    #[test]
    fn bad_tags_are_typed() {
        let mut bytes = encode_image(&sample());
        // entry_kind byte sits right after the words vec + entry_base.
        let kind_pos = 4 + sample().words.len() * 4 + 4;
        bytes[kind_pos] = 9;
        assert!(matches!(
            decode_image(&bytes).unwrap_err(),
            SerialError::BadTag {
                what: "entry kind",
                ..
            }
        ));
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = encode_image(&sample());
        bytes.push(0);
        assert_eq!(
            decode_image(&bytes).unwrap_err(),
            SerialError::Trailing { extra: 1 }
        );
    }
}
