//! The per-tick codec: a byte scanner for `Tick` lines and direct
//! writers for `Accepted` and `Verdict` lines.
//!
//! These three messages are all a steady producer stream carries, so
//! they skip the serde shim's owned `Value` tree. Neither direction has
//! a format of its own:
//! - [`decode_tick`] accepts only lines the generic parser also accepts,
//!   and yields the same bits; anything else returns `None` and the
//!   caller falls back to the generic parser;
//! - the writers emit the bytes [`crate::protocol::encode`] renders.
//!
//! `crates/serve/tests/protocol_roundtrip.rs` property-tests both
//! against the generic path.

use crate::protocol::Request;
use dbcatcher_core::pipeline::Verdict;
use dbcatcher_core::state::DbState;
use std::io::{self, Write};

/// The most rows, and samples per row, that [`decode_tick`] stages on
/// the stack; a wider frame falls back.
const MAX_LIST: usize = 64;

/// Decodes a `Tick` line of the one shape the encoder writes,
/// `{"Tick":{"unit":U,"tick":T,"frame":[[…],…]}}`, with no whitespace
/// (the caller trims the line's end), in one pass over its bytes. Each
/// list is staged on the stack and then allocated at its exact length,
/// so the frame costs one allocation per row plus the outer vector.
///
/// Returns `None` for anything else: another key order, inner
/// whitespace, another variant, a token the generic parser would read
/// differently or reject, or more than [`MAX_LIST`] rows or samples.
pub(crate) fn decode_tick(line: &str) -> Option<Request> {
    let mut scan = Scanner { line, pos: 0 };
    scan.literal(b"{\"Tick\":{\"unit\":")?;
    let unit = usize::try_from(scan.index()?).ok()?;
    scan.literal(b",\"tick\":")?;
    let tick = scan.index()?;
    scan.literal(b",\"frame\":[")?;
    let frame = scan.list(Scanner::row)?;
    scan.literal(b"}}")?;
    scan.rest()
        .is_empty()
        .then_some(Request::Tick { unit, tick, frame })
}

struct Scanner<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn rest(&self) -> &'a [u8] {
        self.line.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn literal(&mut self, expected: &[u8]) -> Option<()> {
        let found = self.rest().starts_with(expected);
        found.then(|| self.pos += expected.len())
    }

    /// The generic parser's number token: the longest run of
    /// `[0-9.eE+-]`.
    fn token(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        let text = self.line.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(text)
    }

    /// A `unit` or `tick`: digits only. A sign, fraction or exponent is
    /// left to the generic parser, which reads `-0` as 0 and rejects the
    /// rest.
    fn index(&mut self) -> Option<u64> {
        let text = self.token()?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse().ok()
        } else {
            None
        }
    }

    /// The items of a list whose `[` is consumed, through its `]`.
    fn list<T: Default>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut staged: [T; MAX_LIST] = std::array::from_fn(|_| T::default());
        let mut len = 0;
        if self.literal(b"]").is_none() {
            loop {
                *staged.get_mut(len)? = item(self)?;
                len += 1;
                if self.literal(b"]").is_some() {
                    break;
                }
                self.literal(b",")?;
            }
        }
        let mut items = Vec::with_capacity(len);
        items.extend(staged.iter_mut().take(len).map(std::mem::take));
        Some(items)
    }

    fn row(&mut self) -> Option<Vec<f64>> {
        self.literal(b"[")?;
        self.list(Self::sample)
    }

    fn sample(&mut self) -> Option<f64> {
        if self.literal(b"null").is_some() {
            return Some(f64::NAN);
        }
        number(self.token()?)
    }
}

/// Reads a sample token as the serde shim does: integer syntax goes
/// through `i64`, then `u64`, then `f64` (so `-0` is +0.0), anything
/// else through `str::parse::<f64>`. The token holds only `[0-9.eE+-]`,
/// so `inf` and `NaN` never reach the parse.
fn number(text: &str) -> Option<f64> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    if digits.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(i) = text.parse::<i64>() {
            return Some(i as f64);
        }
        if let Ok(u) = text.parse::<u64>() {
            return Some(u as f64);
        }
    }
    text.parse().ok()
}

/// Writes `{"Accepted":{"unit":U,"tick":T}}` and a newline.
pub(crate) fn write_accepted(out: &mut impl Write, unit: usize, tick: u64) -> io::Result<()> {
    writeln!(out, "{{\"Accepted\":{{\"unit\":{unit},\"tick\":{tick}}}}}")
}

/// Writes `{"Verdict":{"unit":U,"at_tick":T,"verdict":{…}}}` and a
/// newline.
pub(crate) fn write_verdict(
    out: &mut impl Write,
    unit: usize,
    at_tick: u64,
    verdict: &Verdict,
) -> io::Result<()> {
    // Destructured so that a new `Verdict` field fails to compile here
    // instead of silently leaving the wire.
    let Verdict {
        db,
        start_tick,
        end_tick,
        state,
        window_size,
        expansions,
        scores,
    } = verdict;
    let state = match state {
        DbState::Healthy => "Healthy",
        DbState::Observable => "Observable",
        DbState::Abnormal => "Abnormal",
    };
    write!(
        out,
        "{{\"Verdict\":{{\"unit\":{unit},\"at_tick\":{at_tick},\"verdict\":{{\"db\":{db},\
         \"start_tick\":{start_tick},\"end_tick\":{end_tick},\"state\":\"{state}\",\
         \"window_size\":{window_size},\"expansions\":{expansions},\"scores\":["
    )?;
    for (i, &score) in scores.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_f64(out, score)?;
    }
    out.write_all(b"]}}}\n")
}

/// Writes a float as the serde shim does: `null` when non-finite, else
/// the `{}` text plus `.0` when that text has no `.`, `e` or `E`.
/// `{}` never writes an exponent, and it writes a `.` exactly when the
/// value has a fraction, so the test is on the value.
fn write_f64(out: &mut impl Write, value: f64) -> io::Result<()> {
    if !value.is_finite() {
        out.write_all(b"null")
    } else if value.fract() == 0.0 {
        write!(out, "{value}.0")
    } else {
        write!(out, "{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_lines_take_the_scanner() {
        let line = r#"{"Tick":{"unit":3,"tick":41,"frame":[[1.5,null,-2.0],[],[7,1e3,-0]]}}"#;
        let Some(Request::Tick { unit, tick, frame }) = decode_tick(line) else {
            panic!("{line} fell back");
        };
        assert_eq!((unit, tick), (3, 41));
        assert_eq!(frame.iter().map(Vec::len).collect::<Vec<_>>(), [3, 0, 3]);
        assert!(frame[0][1].is_nan(), "null is NaN");
        assert_eq!(frame[2][0], 7.0);
        assert_eq!(frame[2][1], 1000.0);
        assert_eq!(
            frame[2][2].to_bits(),
            0.0f64.to_bits(),
            "-0 is an integer: +0.0"
        );
    }

    #[test]
    fn lists_past_the_stage_fall_back() {
        let line = |rows: usize, samples: usize| {
            let row = format!("[{}]", vec!["1.5"; samples].join(","));
            let frame = vec![row; rows].join(",");
            format!("{{\"Tick\":{{\"unit\":0,\"tick\":0,\"frame\":[{frame}]}}}}")
        };
        assert!(decode_tick(&line(MAX_LIST, MAX_LIST)).is_some());
        assert!(decode_tick(&line(MAX_LIST + 1, 1)).is_none());
        assert!(decode_tick(&line(1, MAX_LIST + 1)).is_none());
    }

    #[test]
    fn other_shapes_fall_back() {
        for line in [
            r#"{"Tick":{"unit":3,"tick":41,"frame":[[1.5, 2.0]]}}"#,
            r#"{"Tick":{"tick":41,"unit":3,"frame":[[1.5]]}}"#,
            r#"{"Tick":{"unit":-0,"tick":41,"frame":[[1.5]]}}"#,
            r#"{"Tick":{"unit":3,"tick":+1,"frame":[[1.5]]}}"#,
            r#"{"Tick":{"unit":3,"tick":41,"frame":[[inf]]}}"#,
            r#"{"Tick":{"unit":3,"tick":41,"frame":[[1.5]]}} "#,
            r#"{"Tick":{"unit":3,"tick":41,"frame":[[1.5]]}"#,
            r#"{"Flush":{"unit":3}}"#,
        ] {
            assert!(decode_tick(line).is_none(), "{line} took the scanner");
        }
    }
}
