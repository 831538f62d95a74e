//! Process-level sharding for streaming folds (`--shards P`).
//!
//! Threads share one address space; processes don't — so sharding a fold
//! across child processes bounds *peak RSS per process* and sidesteps any
//! allocator-level contention entirely. The protocol is deliberately dumb:
//!
//! 1. The parent ([`crate::supervisor::run_supervised`]) re-executes its
//!    own binary `P` times with `WSC_SHARD=<shard>/<shards>` in the
//!    environment (everything else — scale, seeds, thread count — rides
//!    along in the inherited environment and argv).
//! 2. Each child detects the role ([`ShardRole::from_env`], through
//!    [`crate::supervisor::ShardChild`]), folds its
//!    leaf-aligned sub-span ([`crate::process_shard_span`]), and streams
//!    the folded accumulator's byte encoding back over stdout as a framed
//!    block: a [`PAYLOAD_BEGIN`] line carrying the payload's byte length,
//!    hex body lines (so ordinary prints cannot corrupt the frame), and a
//!    [`PAYLOAD_END`] line carrying a CRC-32 trailer over the raw bytes.
//! 3. The parent verifies the frame — exactly one begin/end pair, the
//!    advertised length, the checksum — and merges the `P` payloads **in
//!    shard order**, which — because shard spans are leaf-aligned and the
//!    merge is associative — reproduces the exact byte result of the
//!    single-process fold. A truncated, duplicated, or corrupted frame is
//!    a structured error, never a silent partial merge.
//!
//! Everything here is transport; determinism comes from the fold tree in
//! the crate root plus the exactly-mergeable summaries in
//! `wsc_telemetry::summary`. Spawning the children and fault tolerance
//! (retries, deadlines, splitting, degradation) live one layer up in
//! [`crate::supervisor`].

use std::fmt;

use crate::crc::crc32;

/// Environment variable carrying a child's shard role as `<shard>/<shards>`.
pub const SHARD_ENV: &str = "WSC_SHARD";

/// Marker prefix of the first line of a framed shard payload on stdout.
/// The full line is `WSC-SHARD-PAYLOAD-BEGIN <len>` where `<len>` is the
/// decimal byte length of the raw (pre-hex) payload.
pub const PAYLOAD_BEGIN: &str = "WSC-SHARD-PAYLOAD-BEGIN";

/// Marker prefix of the last line of a framed shard payload on stdout.
/// The full line is `WSC-SHARD-PAYLOAD-END crc32=<8 hex digits>` where the
/// checksum is [`crc32`] over the raw payload bytes.
pub const PAYLOAD_END: &str = "WSC-SHARD-PAYLOAD-END";

/// Hex characters per payload line (keeps frames diff- and pipe-friendly).
const HEX_LINE: usize = 120;

/// A child process's position in a sharded fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRole {
    /// This process's shard index, `0 <= shard < shards`.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
}

impl ShardRole {
    /// Reads the role from [`SHARD_ENV`], if this process is a shard child.
    /// Malformed values are treated as absent (the parent controls the
    /// variable; a stray value must not silently misconfigure a fold).
    pub fn from_env() -> Option<Self> {
        Self::parse(&std::env::var(SHARD_ENV).ok()?)
    }

    /// Parses `<shard>/<shards>` (what [`Display`](fmt::Display) writes);
    /// `None` unless both are integers with `shard < shards`.
    pub fn parse(raw: &str) -> Option<Self> {
        let (s, p) = raw.split_once('/')?;
        let shard = s.trim().parse::<usize>().ok()?;
        let shards = p.trim().parse::<usize>().ok()?;
        (shard < shards).then_some(Self { shard, shards })
    }

    /// The two roles that tile this one's leaf group exactly: the bounds
    /// `s·S/P` are invariant under doubling both terms, so `(2s, 2P)` and
    /// `(2s+1, 2P)` split the span at a leaf boundary with no protocol
    /// change.
    pub fn halves(self) -> [Self; 2] {
        [0, 1].map(|half| Self {
            shard: 2 * self.shard + half,
            shards: 2 * self.shards,
        })
    }
}

/// `<shard>/<shards>` — the [`SHARD_ENV`] value and the name used in logs.
impl fmt::Display for ShardRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.shard, self.shards)
    }
}

/// Structured failure of one shard child.
#[derive(Clone, Debug)]
pub struct ShardError {
    /// The failing shard's index.
    pub shard: usize,
    /// What went wrong (spawn failure, non-zero exit, bad payload,
    /// deadline exceeded).
    pub message: String,
    /// The last [`crate::supervisor::STDERR_TAIL_LINES`] lines of the
    /// child's stderr, captured so a failed shard is diagnosable from the
    /// parent's report alone. Empty when the child wrote nothing (or
    /// never spawned).
    pub stderr_tail: Vec<String>,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} failed: {}", self.shard, self.message)?;
        if !self.stderr_tail.is_empty() {
            write!(
                f,
                "\n  child stderr (last {} lines):",
                self.stderr_tail.len()
            )?;
            for line in &self.stderr_tail {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ShardError {}

/// Frames `bytes` as the stdout payload block a shard child emits: a
/// length-carrying begin line, `HEX_LINE`-character hex body lines, and
/// a CRC-32 trailer over the raw bytes.
pub fn encode_payload(bytes: &[u8]) -> String {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let mut out = String::with_capacity(hex.len() + hex.len() / HEX_LINE + 96);
    out.push_str(PAYLOAD_BEGIN);
    out.push_str(&format!(" {}\n", bytes.len()));
    for chunk in hex.as_bytes().chunks(HEX_LINE) {
        out.push_str(std::str::from_utf8(chunk).expect("hex is ASCII"));
        out.push('\n');
    }
    out.push_str(&format!("{PAYLOAD_END} crc32={:08x}", crc32(bytes)));
    out
}

/// Extracts, validates, and decodes the framed payload from a child's
/// stdout. Lines outside the frame are ignored (ordinary prints coexist
/// with the protocol); everything inside is held to the wire contract.
///
/// # Errors
///
/// Returns a description when the frame is missing or truncated (no end
/// marker, or fewer bytes than the begin line advertised — a partial
/// write), duplicated (two begin markers — two children writing to one
/// pipe, or a retried child flushing twice), or corrupted (non-hex body
/// bytes, a length mismatch, or a CRC-32 trailer that does not match).
pub fn decode_payload(stdout_text: &str) -> Result<Vec<u8>, String> {
    let mut frame: Option<(usize, String)> = None; // (advertised len, hex)
    let mut done: Option<(usize, String, u32)> = None; // + crc trailer
    for line in stdout_text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(PAYLOAD_BEGIN) {
            if frame.is_some() || done.is_some() {
                return Err("duplicate shard frame begin marker".to_string());
            }
            let len = rest
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("malformed frame begin line {line:?}"))?;
            frame = Some((len, String::new()));
        } else if let Some(rest) = line.strip_prefix(PAYLOAD_END) {
            let Some((len, hex)) = frame.take() else {
                return Err("shard frame end marker without begin".to_string());
            };
            let crc = rest
                .trim()
                .strip_prefix("crc32=")
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("malformed frame end line {line:?}"))?;
            done = Some((len, hex, crc));
        } else if let Some((_, hex)) = frame.as_mut() {
            if !line.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("non-hex bytes inside shard frame: {line:?}"));
            }
            hex.push_str(line);
        }
    }
    if frame.is_some() {
        return Err("shard frame truncated: no end marker (partial write?)".to_string());
    }
    let Some((len, hex, crc)) = done else {
        return Err("no framed shard payload in child stdout".to_string());
    };
    if !hex.len().is_multiple_of(2) {
        return Err("shard payload has odd hex length".to_string());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("invalid hex byte {other:#04x} in shard payload")),
        }
    };
    let bytes: Vec<u8> = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect::<Result<_, String>>()?;
    if bytes.len() != len {
        return Err(format!(
            "shard payload truncated: frame advertised {len} bytes, decoded {}",
            bytes.len()
        ));
    }
    let actual = crc32(&bytes);
    if actual != crc {
        return Err(format!(
            "shard payload corrupted: crc32 {actual:08x} != trailer {crc:08x}"
        ));
    }
    Ok(bytes)
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let framed = encode_payload(&bytes);
        assert!(framed.starts_with(PAYLOAD_BEGIN));
        assert!(framed.contains(&format!("{PAYLOAD_BEGIN} 1000")));
        assert!(framed.contains("crc32="));
        let back = decode_payload(&framed).unwrap();
        assert_eq!(back, bytes);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let framed = encode_payload(&[]);
        assert_eq!(decode_payload(&framed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn payload_survives_surrounding_noise() {
        let bytes = vec![0xde, 0xad, 0xbe, 0xef];
        let noisy = format!(
            "# fleet survey table\nrows...\n{}\ntrailing prints\n",
            encode_payload(&bytes)
        );
        assert_eq!(decode_payload(&noisy).unwrap(), bytes);
    }

    #[test]
    fn truncation_is_rejected() {
        assert!(decode_payload("no frame here").is_err());
        // Partial write: begin + some body, no end marker.
        let full = encode_payload(&[1u8; 300]);
        let cut = &full[..full.len() / 2];
        let err = decode_payload(cut).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Body shorter than the advertised length, end marker intact.
        let bytes = vec![7u8; 120];
        let framed = encode_payload(&bytes);
        let mut lines: Vec<&str> = framed.lines().collect();
        lines.remove(1); // drop one full hex line
        let err = decode_payload(&lines.join("\n")).unwrap_err();
        assert!(err.contains("advertised"), "{err}");
    }

    #[test]
    fn duplicate_markers_are_rejected() {
        let framed = encode_payload(&[1, 2, 3]);
        let doubled = format!("{framed}\n{framed}");
        let err = decode_payload(&doubled).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let orphan_end = format!("{PAYLOAD_END} crc32=00000000");
        let err = decode_payload(&orphan_end).unwrap_err();
        assert!(err.contains("without begin"), "{err}");
    }

    #[test]
    fn corruption_is_rejected() {
        let bytes: Vec<u8> = (0..200u8).collect();
        let framed = encode_payload(&bytes);
        // Flip one hex digit in the body: still valid hex, CRC catches it.
        let body_start = framed.find('\n').unwrap() + 1;
        let target = body_start + 10;
        let mut flipped = framed.clone().into_bytes();
        flipped[target] = if flipped[target] == b'0' { b'1' } else { b'0' };
        let err = decode_payload(std::str::from_utf8(&flipped).unwrap()).unwrap_err();
        assert!(err.contains("crc32"), "{err}");
        // Non-hex bytes mid-frame are rejected before any decode.
        let mut garbled = framed.clone().into_bytes();
        garbled[target] = b'z';
        let err = decode_payload(std::str::from_utf8(&garbled).unwrap()).unwrap_err();
        assert!(err.contains("non-hex"), "{err}");
        // A tampered CRC trailer is a corruption error too.
        let bad_trailer = framed.replace("crc32=", "crc32=0");
        let bad_trailer = format!("{}\n", &bad_trailer[..bad_trailer.len().saturating_sub(1)]);
        assert!(decode_payload(&bad_trailer).is_err());
    }

    #[test]
    fn role_env_roundtrip_and_rejection() {
        let role = ShardRole {
            shard: 2,
            shards: 4,
        };
        assert_eq!(role.to_string(), "2/4");
        assert_eq!(ShardRole::parse("2/4"), Some(role));
        assert_eq!(ShardRole::parse(" 0 / 1 "), ShardRole::parse("0/1"));
        for bad in ["", "3", "4/4", "a/b", "1/0", "-1/2"] {
            assert_eq!(ShardRole::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn shard_error_display_carries_stderr_tail() {
        let e = ShardError {
            shard: 3,
            message: "exited with exit status: 7".to_string(),
            stderr_tail: vec![
                "panic at foo.rs:10".to_string(),
                "note: run again".to_string(),
            ],
        };
        let shown = e.to_string();
        assert!(shown.contains("shard 3 failed"), "{shown}");
        assert!(shown.contains("panic at foo.rs:10"), "{shown}");
        assert!(shown.contains("last 2 lines"), "{shown}");
    }

    #[test]
    fn shard_spans_tile_the_fold_tree() {
        for total in [0usize, 1, 5, 97, 1_000, 100_000] {
            for shards in [1usize, 2, 3, 4, 7] {
                let spans: Vec<_> = (0..shards)
                    .map(|s| crate::process_shard_span(total, s, shards))
                    .collect();
                assert_eq!(spans[0].lo, 0);
                assert_eq!(spans[shards - 1].hi, total);
                for w in spans.windows(2) {
                    assert_eq!(w[0].hi, w[1].lo, "contiguous tiling");
                }
                // Every span boundary is a leaf boundary.
                let bounds: Vec<usize> = (0..crate::fold_leaf_count(total))
                    .map(|l| crate::fold_leaf_bounds(total, l).0)
                    .chain([total])
                    .collect();
                for s in &spans {
                    assert!(bounds.contains(&s.lo), "lo {} leaf-aligned", s.lo);
                    assert!(bounds.contains(&s.hi), "hi {} leaf-aligned", s.hi);
                }
            }
        }
    }
}
