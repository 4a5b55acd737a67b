//! Wire-protocol property tests: every message variant survives
//! serialize → parse, and hostile lines (garbage, truncation, oversize)
//! always produce a typed [`ProtocolError`] — never a panic, never a
//! silently wrong message.

use dbcatcher_core::pipeline::Verdict;
use dbcatcher_core::state::DbState;
use dbcatcher_hierarchy::{IncidentClass, Scope, ScopeState, ScopeVerdict};
use dbcatcher_serve::metrics::{MetricsSnapshot, ShardStatus, UnitMetrics};
use dbcatcher_serve::protocol::{
    decode_request, decode_response, encode, write_response, ProtocolError, RejectReason, Request,
    Response, MAX_LINE_BYTES,
};
use proptest::prelude::*;

/// NaN-tolerant equality: the wire maps non-finite to `null` to NaN.
fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

fn request_for(choice: usize, unit: usize, tick: u64, samples: &[f64]) -> Request {
    match choice % 7 {
        0 => Request::Hello {
            unit,
            dbs: 1 + unit % 7,
            kpis: 1 + tick as usize % 14,
            participation: if unit.is_multiple_of(2) {
                None
            } else {
                Some(vec![
                    vec![unit.is_multiple_of(3); 1 + unit % 7];
                    1 + tick as usize % 14
                ])
            },
        },
        1 => Request::Tick {
            unit,
            tick,
            frame: samples.chunks(3).map(<[f64]>::to_vec).collect(),
        },
        2 => Request::Flush { unit },
        3 => Request::Subscribe,
        4 => Request::Stats,
        5 => Request::ResetUnit { unit },
        _ => Request::Stop,
    }
}

fn response_for(choice: usize, unit: usize, tick: u64, samples: &[f64]) -> Response {
    match choice % 10 {
        0 => Response::HelloAck {
            unit,
            next_tick: tick,
            resumed: unit.is_multiple_of(2),
        },
        1 => Response::Accepted { unit, tick },
        2 => Response::Rejected {
            unit,
            tick,
            expected: tick / 2,
            retry_after_ms: 20,
            reason: match unit % 4 {
                0 => RejectReason::Backpressure,
                1 => RejectReason::OutOfOrder,
                2 => RejectReason::Degraded,
                _ => RejectReason::UnknownUnit,
            },
        },
        3 => Response::Verdict {
            unit,
            at_tick: tick,
            verdict: Verdict {
                db: unit % 5,
                start_tick: tick.saturating_sub(20),
                end_tick: tick,
                state: if unit.is_multiple_of(2) {
                    DbState::Healthy
                } else {
                    DbState::Abnormal
                },
                window_size: 20 + unit % 40,
                expansions: (tick % 3) as u32,
                scores: samples.to_vec(),
            },
        },
        4 => Response::FlushAck {
            unit,
            ticks_ingested: tick,
            verdicts: tick / 3,
            next_tick: tick,
        },
        5 => Response::Subscribed,
        6 => Response::Stats(MetricsSnapshot {
            units: vec![UnitMetrics {
                unit,
                ticks: tick,
                demoted_dbs: vec![unit % 3],
                last_error: Some("disk full".into()),
                ..UnitMetrics::default()
            }],
            shards: 2,
            shard_status: vec![ShardStatus {
                shard: 0,
                restarts: tick % 3,
                wedges: tick % 2,
                failed: unit.is_multiple_of(5),
                ticks: tick * 2,
                ns_per_tick: 1000 + tick,
                last_panic: (!unit.is_multiple_of(2)).then(|| "panicked: boom".into()),
            }],
            subscribers: 1,
            total_ticks: tick,
            total_rejects: 0,
            total_verdicts: tick / 3,
            hierarchy_enabled: unit.is_multiple_of(2),
            scope_verdicts: tick % 7,
            scope_alarms_active: tick % 3,
        }),
        7 => Response::ResetAck {
            unit,
            next_tick: tick,
        },
        8 => Response::ScopeVerdict(ScopeVerdict {
            scope: match unit % 3 {
                0 => Scope::Cluster(unit / 3),
                1 => Scope::Region(unit / 3),
                _ => Scope::Fleet,
            },
            at_tick: tick,
            state: if unit.is_multiple_of(2) {
                ScopeState::Alarm
            } else {
                ScopeState::Clear
            },
            score: 0.5,
            class: unit
                .is_multiple_of(2)
                .then_some(IncidentClass::SuddenIncident),
            onset_tick: unit.is_multiple_of(2).then(|| tick.saturating_sub(4)),
            epicenter: Some(unit),
            group: vec![unit, unit + 1],
            blamed_kpi: Some(unit % 14),
        }),
        _ => Response::Error {
            message: format!("unit {unit} degraded at tick {tick}"),
        },
    }
}

proptest! {
    /// Every request variant round-trips through one wire line.
    #[test]
    fn requests_round_trip(
        choice in 0usize..7,
        unit in 0usize..64,
        tick in 0u64..100_000,
        samples in prop::collection::vec(-1e6f64..1e6, 1..12),
    ) {
        let request = request_for(choice, unit, tick, &samples);
        let line = encode(&request);
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = decode_request(&line).expect("round trip");
        prop_assert_eq!(back, request);
    }

    /// Every response variant round-trips, NaN scores included.
    #[test]
    fn responses_round_trip(
        choice in 0usize..10,
        unit in 0usize..64,
        tick in 0u64..100_000,
        samples in prop::collection::vec(-1e6f64..1e6, 1..12),
        poison in any::<bool>(),
    ) {
        let mut scores = samples.clone();
        if poison {
            scores[0] = f64::NAN;
        }
        let response = response_for(choice, unit, tick, &scores);
        let line = encode(&response);
        prop_assert!(!line.contains('\n'));
        let back = decode_response(&line).expect("round trip");
        match (&back, &response) {
            (
                Response::Verdict { verdict: a, .. },
                Response::Verdict { verdict: b, .. },
            ) => {
                prop_assert_eq!(a.scores.len(), b.scores.len());
                for (x, y) in a.scores.iter().zip(&b.scores) {
                    prop_assert!(close(*x, *y), "{x} vs {y}");
                }
            }
            _ => prop_assert_eq!(&back, &response),
        }
    }

    /// Truncating a valid line anywhere yields a typed error, not a panic
    /// and not a different valid message.
    #[test]
    fn truncation_yields_typed_error(
        choice in 0usize..7,
        unit in 0usize..64,
        tick in 0u64..100_000,
        cut in 0.0f64..1.0,
    ) {
        let line = encode(&request_for(choice, unit, tick, &[1.0, 2.0, 3.0]));
        let keep = ((line.len() as f64 * cut) as usize).min(line.len().saturating_sub(1));
        // stay on a char boundary (labels are ASCII, but be safe)
        let mut keep = keep;
        while !line.is_char_boundary(keep) {
            keep -= 1;
        }
        let truncated = &line[..keep];
        match decode_request(truncated) {
            Err(ProtocolError::Malformed { .. }) => {}
            Ok(parsed) => {
                // Only the degenerate cut that keeps the entire payload
                // may still parse.
                prop_assert_eq!(keep, line.len(), "prefix parsed: {:?}", parsed);
            }
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }

    /// Arbitrary garbage never panics the decoder and never produces a
    /// message.
    #[test]
    fn garbage_yields_typed_error(bytes in prop::collection::vec(0usize..256, 1..64)) {
        let garbage: String = bytes
            .iter()
            .map(|&b| char::from_u32(b as u32).unwrap_or('?'))
            .collect();
        // Anything that accidentally forms valid JSON for a variant is
        // astronomically unlikely; accept either outcome but require no
        // panic and a typed error otherwise.
        if let Err(e) = decode_request(&garbage) {
            assert!(matches!(e, ProtocolError::Malformed { .. } | ProtocolError::Oversized { .. }));
        }
    }
}

/// Samples the wire must carry bit for bit: signed zeros, subnormals,
/// whole numbers, integers past 2^53 and the non-finite values that
/// travel as `null`.
const SPECIAL_SAMPLES: &[f64] = &[
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -2.225_073_858_507_201e-308,
    1.0,
    -7.0,
    250.0,
    1e21,
    9_007_199_254_740_993.0,
    f64::MAX,
    f64::MIN_POSITIVE,
    0.1,
    -1e-7,
];

/// Tokens swapped in for a sample, a unit or a tick: every one of them
/// either parses the same through both decode paths or fails the same.
const ODD_TOKENS: &[&str] = &[
    "null",
    "-0",
    "-0.0",
    "1e400",
    "-1e-400",
    "+1",
    "01",
    ".5",
    "1.",
    "inf",
    "NaN",
    "-",
    "",
    "infinity",
    "-inf",
    "1e",
    "1E3",
    "--1",
    "1-2",
    "nul",
    "nullx",
    "true",
    "\"1\"",
    "[1]",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "0x10",
    "1_0",
    "\u{661}",
    "1 ",
    " 1",
];

const WHITESPACE: &[&str] = &[" ", "\t", "\n", "\r", "\u{a0}", "\u{2028}", " \r\n"];

/// Renders a canonical Tick line from its tokens (`encode`'s shape).
fn tick_line(unit: &str, tick: &str, rows: &[Vec<String>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| format!("[{}]", row.join(",")))
        .collect();
    format!(
        "{{\"Tick\":{{\"unit\":{unit},\"tick\":{tick},\"frame\":[{}]}}}}",
        rows.join(",")
    )
}

/// `decode_request` must agree with the generic parser on `line`: the
/// same message with the same float bits, or the same error.
fn assert_decodes_like_generic(line: &str) {
    let fast = decode_request(line);
    let generic = serde_json::from_str::<Request>(line.trim_end());
    match (&fast, &generic) {
        (
            Ok(Request::Tick { unit, tick, frame }),
            Ok(Request::Tick {
                unit: unit_g,
                tick: tick_g,
                frame: frame_g,
            }),
        ) => {
            assert_eq!((unit, tick), (unit_g, tick_g), "{line:?}");
            let bits = |f: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                f.iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(frame), bits(frame_g), "{line:?}");
        }
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{line:?}"),
        (Err(ProtocolError::Malformed { detail }), Err(e)) => {
            assert_eq!(detail, &e.to_string(), "{line:?}");
        }
        _ => panic!("{line:?}: decode_request {fast:?}, generic {generic:?}"),
    }
}

proptest! {
    /// The Tick scanner inside `decode_request` decodes exactly what the
    /// generic parser decodes: canonical lines, perturbed tokens,
    /// inserted whitespace, reordered or extra keys, other variants and
    /// truncations alike.
    #[test]
    fn tick_decode_matches_generic_parser(
        unit in 0usize..100_000,
        tick in 0u64..u64::MAX,
        rows in 0usize..7,
        cols in 0usize..6,
        plain in prop::collection::vec(-1e6f64..1e6, 36..37),
        specials in prop::collection::vec(0usize..2 * SPECIAL_SAMPLES.len(), 36..37),
        perturbation in 0usize..8,
        pick in 0usize..10_000,
        at in 0.0f64..1.0,
    ) {
        let frame: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let i = r * cols + c;
                        SPECIAL_SAMPLES.get(specials[i]).copied().unwrap_or(plain[i])
                    })
                    .collect()
            })
            .collect();
        let canonical = encode(&Request::Tick { unit, tick, frame: frame.clone() });
        let mut tokens: Vec<Vec<String>> = frame
            .iter()
            .map(|row| row.iter().map(|v| serde_json::to_string(v).unwrap()).collect())
            .collect();
        let (unit_text, tick_text) = (unit.to_string(), tick.to_string());
        prop_assert_eq!(&tick_line(&unit_text, &tick_text, &tokens), &canonical);
        let odd = ODD_TOKENS[pick % ODD_TOKENS.len()];
        let line = match perturbation {
            0 => canonical.clone() + WHITESPACE[pick % WHITESPACE.len()],
            1 if rows * cols > 0 => {
                tokens[pick % rows][pick % cols] = odd.to_string();
                tick_line(&unit_text, &tick_text, &tokens)
            }
            2 => tick_line(odd, &tick_text, &tokens),
            3 => tick_line(&unit_text, odd, &tokens),
            4 => {
                let mut cut = (canonical.len() as f64 * at) as usize;
                while !canonical.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut line = canonical.clone();
                line.insert_str(cut, WHITESPACE[pick % WHITESPACE.len()]);
                line
            }
            5 => {
                let fields = [
                    format!("\"unit\":{unit_text}"),
                    format!("\"tick\":{tick_text}"),
                    format!("\"frame\":{}", &canonical[canonical.find('[').unwrap()..canonical.len() - 2]),
                    "\"unit\":0".to_string(),
                    "\"extra\":[1,{\"a\":null}]".to_string(),
                ];
                let orders: [&[usize]; 8] = [
                    &[1, 0, 2],
                    &[2, 1, 0],
                    &[0, 2, 1],
                    &[0, 1, 2, 4],
                    &[4, 0, 1, 2],
                    &[0, 1, 2, 3],
                    &[0, 1],
                    &[0, 0, 1, 2],
                ];
                let order = orders[pick % orders.len()];
                let body: Vec<&str> = order.iter().map(|&i| fields[i].as_str()).collect();
                format!("{{\"Tick\":{{{}}}}}", body.join(","))
            }
            6 => {
                let cut = ((canonical.len() as f64 * at) as usize).min(canonical.len() - 1);
                canonical[..cut].to_string()
            }
            _ => {
                let others = [
                    canonical.replacen("Tick", "Tock", 1),
                    canonical.replacen("{\"Tick\":", "{\"Tick\" :", 1),
                    canonical.replacen("\"unit\"", "\"\\u0075nit\"", 1),
                    canonical.replacen("[[", "[ [", 1),
                    format!("{canonical}}}"),
                    format!("[{canonical}]"),
                    format!("{canonical} x"),
                    encode(&Request::Flush { unit }),
                    encode(&Request::Hello { unit, dbs: rows, kpis: cols, participation: None }),
                    canonical.replacen("]]", "]],[]]", 1),
                ];
                others[pick % others.len()].clone()
            }
        };
        assert_decodes_like_generic(&line);
    }

    /// `write_response` writes the bytes of `encode` plus a newline for
    /// every variant, including verdict scores that are NaN, signed
    /// zeros, subnormals and whole numbers.
    #[test]
    fn write_response_matches_encode(
        choice in 0usize..10,
        unit in 0usize..100_000,
        tick in 0u64..u64::MAX,
        plain in prop::collection::vec(-1e6f64..1e6, 1..15),
        specials in prop::collection::vec(0usize..2 * SPECIAL_SAMPLES.len(), 14..15),
    ) {
        let scores: Vec<f64> = plain
            .iter()
            .zip(&specials)
            .map(|(&v, &s)| SPECIAL_SAMPLES.get(s).copied().unwrap_or(v))
            .collect();
        // `Stats` doubles its tick; every other variant takes it whole.
        let tick = if choice == 6 { tick / 2 } else { tick };
        let response = response_for(choice, unit, tick, &scores);
        let mut written = Vec::new();
        write_response(&response, &mut written).unwrap();
        prop_assert_eq!(
            String::from_utf8(written).unwrap(),
            format!("{}\n", encode(&response))
        );
    }
}

#[test]
fn tick_decode_edge_cases_match_generic_parser() {
    for line in [
        r#"{"Tick":{"unit":0,"tick":0,"frame":[]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[],[1.5]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[-0,-0.0,0]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[null,1e400,-1e-400]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[inf]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[NaN]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[1,]]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[1],]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[1]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[1]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[[1]]]}}"#,
        r#"{"Tick":{"unit":-0,"tick":01,"frame":[[1]]}}"#,
        r#"{"Tick":{"unit":18446744073709551615,"tick":18446744073709551615,"frame":[]}}"#,
        r#"{"Tick":{"unit":18446744073709551616,"tick":0,"frame":[]}}"#,
        r#"{"Tick":{"unit":0,"tick":0,"frame":[[9223372036854775807,-9223372036854775808]]}}"#,
        "{\"Tick\":{\"unit\":0,\"tick\":0,\"frame\":[[1]]}}\r\n",
        "{\"Tick\":{\"unit\":0,\"tick\":0,\"frame\":[[1]]}}\u{a0}",
        "{\"Tick\":{\"unit\":0,\"tick\":0,\"frame\":[[\u{661}]]}}",
    ] {
        assert_decodes_like_generic(line);
    }
    // Frames wider than the scanner stages still decode, generically.
    for (rows, samples) in [(65, 3), (3, 65), (80, 80)] {
        let frame = vec![vec![0.25; samples]; rows];
        let line = encode(&Request::Tick {
            unit: 1,
            tick: 2,
            frame: frame.clone(),
        });
        assert_decodes_like_generic(&line);
        assert_eq!(
            decode_request(&line).unwrap(),
            Request::Tick {
                unit: 1,
                tick: 2,
                frame
            }
        );
    }
}

#[test]
fn oversized_lines_rejected_for_both_directions() {
    let huge = format!("{{\"Flush\":{{\"unit\":{}}}}}", "9".repeat(MAX_LINE_BYTES));
    assert!(matches!(
        decode_request(&huge),
        Err(ProtocolError::Oversized { .. })
    ));
    assert!(matches!(
        decode_response(&huge),
        Err(ProtocolError::Oversized { .. })
    ));
}
