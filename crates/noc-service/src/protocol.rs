//! The `nocd` line protocol: request grammar, input caps and parsing.
//!
//! One request per line, in the same keyword-led style as the
//! `ExperimentSpec` grammar (`noc-flow`). Blank lines and `#` comments
//! are ignored. Every response is a status line (`ok …` / `err …`),
//! zero or more detail lines, and a lone `.` terminator — so clients
//! frame responses without length prefixes.
//!
//! ```text
//! add <id> flow <src> <dst> <mbps> [<lat_us>] [; flow ...]
//! modify <id> flow <src> <dst> <mbps> [<lat_us>] [; flow ...]
//! remove <id>
//! fault link <idx> [<idx> ...]
//! fault ni <idx> [<idx> ...]
//! heal
//! health
//! flush
//! stats
//! snapshot
//! shutdown
//! ```
//!
//! `src` / `dst` are core indices from the shared core pool, `mbps` the
//! flow bandwidth in MB/s, `lat_us` an optional worst-case latency
//! bound in µs (unconstrained when absent). A bandwidth whose bytes/s,
//! or a latency whose nanoseconds, would not fit a `u64` (below the
//! unconstrained sentinel, for a latency) is a grammar violation.
//! `add`/`modify`/`remove`/`fault` are queued and applied together at
//! the next reconfiguration point (batch full, explicit `flush`, or any
//! of `stats` / `snapshot` / `heal` / `health` / `shutdown`) — see
//! [`crate::engine`]. `fault` indices are positions into the fabric's
//! link list (`fault link`) or NI list (`fault ni`).
//!
//! # Hardened edge
//!
//! The parser is the daemon's untrusted-input boundary, so every limit
//! is explicit and typed: a request line longer than [`MAX_LINE_BYTES`],
//! more than [`MAX_FLOWS`] flow clauses, or more than
//! [`MAX_FAULT_INDICES`] fault indices is rejected with
//! [`ProtocolError::Overflow`] *before* any allocation proportional to
//! the oversized input (the daemon reads at most `MAX_LINE_BYTES + 2`
//! bytes of a line, see [`crate::net`]). Grammar violations are
//! [`ProtocolError::Syntax`]. Every malformed input maps to an `err …`
//! response — never a panic (pinned by a seeded byte-salad property
//! test in the engine).

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Hard cap on one request line, in bytes (before parsing).
pub const MAX_LINE_BYTES: usize = 4096;

/// Hard cap on flow clauses per `add` / `modify`.
pub const MAX_FLOWS: usize = 64;

/// Hard cap on indices per `fault` request.
pub const MAX_FAULT_INDICES: usize = 64;

/// A rejected request line: either an input-cap overflow or a grammar
/// violation. The engine renders these as `err overflow: …` /
/// `err parse: …` status lines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The request exceeded a hard input cap.
    Overflow {
        /// What overflowed (`"line bytes"`, `"flow clauses"`, …).
        what: &'static str,
        /// The cap.
        limit: usize,
        /// The offending size.
        got: usize,
    },
    /// The request violated the grammar.
    Syntax(String),
}

impl ProtocolError {
    /// The `err <kind>:` token the engine prefixes responses with.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::Overflow { .. } => "overflow",
            ProtocolError::Syntax(_) => "parse",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Overflow { what, limit, got } => {
                write!(f, "{what} {got} exceeds cap {limit}")
            }
            ProtocolError::Syntax(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for ProtocolError {}

fn syntax(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::Syntax(msg.into())
}

/// The largest `MBPS` whose bytes/s fit a `u64` (`Bandwidth::from_mbps`).
const MAX_MBPS: u64 = u64::MAX / 1_000_000;

/// The largest `LAT_US` whose nanoseconds fit a `u64` below the
/// `Latency::UNCONSTRAINED` sentinel (`Latency::from_us`).
const MAX_LAT_US: u64 = (u64::MAX - 1) / 1_000;

/// Parses the `name` token `tok` as a number no larger than `max`.
fn number<T: FromStr + PartialOrd>(name: &str, tok: &str, max: T) -> Result<T, ProtocolError> {
    tok.parse::<T>()
        .ok()
        .filter(|n| *n <= max)
        .ok_or_else(|| syntax(format!("bad {name} '{tok}'")))
}

/// One requested flow of a use-case (`flow <src> <dst> <mbps>
/// [<lat_us>]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source core index in the shared pool.
    pub src: u32,
    /// Destination core index.
    pub dst: u32,
    /// Bandwidth in MB/s.
    pub mbps: u64,
    /// Worst-case latency bound in µs; `None` = unconstrained.
    pub lat_us: Option<u64>,
}

impl fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow {} {} {}", self.src, self.dst, self.mbps)?;
        if let Some(lat) = self.lat_us {
            write!(f, " {lat}")?;
        }
        Ok(())
    }
}

/// Which resource class a `fault` request fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Directed links, by index into the fabric's link list.
    Link,
    /// NIs, by index into the fabric's NI list.
    Ni,
}

impl FaultTarget {
    /// The grammar token (`link` / `ni`).
    pub fn token(self) -> &'static str {
        match self {
            FaultTarget::Link => "link",
            FaultTarget::Ni => "ni",
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Admit a new use-case under the given id.
    Add {
        /// Client-chosen use-case id (must be new).
        id: String,
        /// The use-case's flows (at least one).
        flows: Vec<FlowSpec>,
    },
    /// Replace an admitted use-case's flows (re-admitted atomically;
    /// the old version stays if the new one is rejected).
    Modify {
        /// Id of an admitted use-case.
        id: String,
        /// The replacement flows (at least one).
        flows: Vec<FlowSpec>,
    },
    /// Evict an admitted use-case and free its exclusive cores.
    Remove {
        /// Id of an admitted use-case.
        id: String,
    },
    /// Fail fabric resources (queued like a mutation; the engine
    /// injects the faults and auto-heals at the next reconfiguration
    /// point).
    Fault {
        /// Resource class the indices address.
        target: FaultTarget,
        /// Indices into the fabric's link or NI list (at least one).
        indices: Vec<usize>,
    },
    /// Re-attempt admission of every degraded use-case (flushes
    /// first).
    Heal,
    /// Per-use-case health plus the active fault set (flushes first).
    Health,
    /// Apply all queued mutations now (an explicit reconfiguration
    /// point).
    Flush,
    /// Admission-control metrics (flushes first).
    Stats,
    /// The current core → NI placement per use-case (flushes first).
    Snapshot,
    /// Flush, respond, and stop serving.
    Shutdown,
}

fn parse_flows(tokens: &[&str]) -> Result<Vec<FlowSpec>, ProtocolError> {
    let clauses = tokens.split(|&t| t == ";").count();
    if clauses > MAX_FLOWS {
        return Err(ProtocolError::Overflow {
            what: "flow clauses",
            limit: MAX_FLOWS,
            got: clauses,
        });
    }
    let mut flows = Vec::new();
    for chunk in tokens.split(|&t| t == ";") {
        match chunk {
            ["flow", src, dst, mbps, rest @ ..] => {
                let lat_us = match rest {
                    [] => None,
                    [lat] => Some(number("latency", lat, MAX_LAT_US)?),
                    more => return Err(syntax(format!("trailing tokens {more:?}"))),
                };
                flows.push(FlowSpec {
                    src: number("source core", src, u32::MAX)?,
                    dst: number("destination core", dst, u32::MAX)?,
                    mbps: number("bandwidth", mbps, MAX_MBPS)?,
                    lat_us,
                });
            }
            [] => return Err(syntax("empty flow clause")),
            other => {
                return Err(syntax(format!(
                    "expected 'flow SRC DST MBPS [LAT_US]', got {other:?}"
                )))
            }
        }
    }
    if flows.is_empty() {
        return Err(syntax("a use-case needs at least one flow"));
    }
    Ok(flows)
}

fn parse_fault(tokens: &[&str]) -> Result<Command, ProtocolError> {
    let [kind, rest @ ..] = tokens else {
        return Err(syntax("expected 'fault <link|ni> IDX [IDX ...]'"));
    };
    let target = match *kind {
        "link" => FaultTarget::Link,
        "ni" => FaultTarget::Ni,
        other => return Err(syntax(format!("unknown fault target '{other}'"))),
    };
    if rest.is_empty() {
        return Err(syntax("a fault needs at least one index"));
    }
    if rest.len() > MAX_FAULT_INDICES {
        return Err(ProtocolError::Overflow {
            what: "fault indices",
            limit: MAX_FAULT_INDICES,
            got: rest.len(),
        });
    }
    let indices = rest
        .iter()
        .map(|tok| {
            tok.parse::<usize>()
                .map_err(|_| syntax(format!("bad fault index '{tok}'")))
        })
        .collect::<Result<Vec<usize>, ProtocolError>>()?;
    Ok(Command::Fault { target, indices })
}

/// Parses one request line. `Ok(None)` for blank lines and `#`
/// comments; `Err` is the first input-cap or grammar violation.
///
/// # Errors
///
/// [`ProtocolError::Overflow`] when an input cap is exceeded (checked
/// before any grammar work), [`ProtocolError::Syntax`] for grammar
/// violations.
pub fn parse_command(line: &str) -> Result<Option<Command>, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Overflow {
            what: "line bytes",
            limit: MAX_LINE_BYTES,
            got: line.len(),
        });
    }
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let cmd = match tokens.as_slice() {
        ["add", id, rest @ ..] => Command::Add {
            id: (*id).to_string(),
            flows: parse_flows(rest)?,
        },
        ["modify", id, rest @ ..] => Command::Modify {
            id: (*id).to_string(),
            flows: parse_flows(rest)?,
        },
        ["remove", id] => Command::Remove {
            id: (*id).to_string(),
        },
        ["fault", rest @ ..] => parse_fault(rest)?,
        ["heal"] => Command::Heal,
        ["health"] => Command::Health,
        ["flush"] => Command::Flush,
        ["stats"] => Command::Stats,
        ["snapshot"] => Command::Snapshot,
        ["shutdown"] => Command::Shutdown,
        [verb, ..] => return Err(syntax(format!("unknown command '{verb}'"))),
        [] => unreachable!("blank lines returned above"),
    };
    Ok(Some(cmd))
}

/// The response terminator line clients frame on.
pub const TERMINATOR: &str = ".";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("# comment").unwrap(), None);
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("snapshot").unwrap(), Some(Command::Snapshot));
        assert_eq!(parse_command("flush").unwrap(), Some(Command::Flush));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
        assert_eq!(parse_command("heal").unwrap(), Some(Command::Heal));
        assert_eq!(parse_command("health").unwrap(), Some(Command::Health));
        assert_eq!(
            parse_command("remove u3").unwrap(),
            Some(Command::Remove {
                id: "u3".to_string()
            })
        );
        assert_eq!(
            parse_command("fault link 3 17").unwrap(),
            Some(Command::Fault {
                target: FaultTarget::Link,
                indices: vec![3, 17],
            })
        );
        assert_eq!(
            parse_command("fault ni 0").unwrap(),
            Some(Command::Fault {
                target: FaultTarget::Ni,
                indices: vec![0],
            })
        );
        assert_eq!(
            parse_command("add u0 flow 1 2 250 30 ; flow 2 3 100").unwrap(),
            Some(Command::Add {
                id: "u0".to_string(),
                flows: vec![
                    FlowSpec {
                        src: 1,
                        dst: 2,
                        mbps: 250,
                        lat_us: Some(30)
                    },
                    FlowSpec {
                        src: 2,
                        dst: 3,
                        mbps: 100,
                        lat_us: None
                    },
                ],
            })
        );
    }

    #[test]
    fn rejects_grammar_violations() {
        assert!(parse_command("add u0").is_err());
        assert!(parse_command("add u0 flow 1 2").is_err());
        assert!(parse_command("add u0 flow 1 2 x").is_err());
        assert!(parse_command("add u0 flow 1 2 100 5 9").is_err());
        assert!(parse_command("remove").is_err());
        assert!(parse_command("frobnicate u0").is_err());
        assert!(parse_command("modify u0 flow 1 2 100 ;").is_err());
        assert!(parse_command("fault").is_err());
        assert!(parse_command("fault link").is_err());
        assert!(parse_command("fault switch 3").is_err());
        assert!(parse_command("fault link x").is_err());
        assert!(parse_command("heal now").is_err());
        assert!(parse_command("health check").is_err());
        assert!(parse_command("add u0 flow 4294967296 1 100").is_err());
    }

    /// A bandwidth or latency the unit constructors would overflow is a
    /// parse error, like a non-numeric one; the largest in range parse.
    #[test]
    fn rejects_out_of_range_bandwidth_and_latency() {
        let flow = |line: &str| match parse_command(line) {
            Ok(Some(Command::Add { flows, .. })) => Ok(flows[0].clone()),
            other => Err(other.unwrap_err()),
        };
        assert_eq!(
            flow(&format!("add u0 flow 0 1 {MAX_MBPS}")).unwrap().mbps,
            MAX_MBPS
        );
        assert_eq!(
            flow(&format!("add u0 flow 0 1 1 {MAX_LAT_US}"))
                .unwrap()
                .lat_us,
            Some(MAX_LAT_US)
        );
        for (line, token) in [
            (
                "add u0 flow 0 1 18446744073710",
                "bandwidth '18446744073710'",
            ),
            (
                "add u0 flow 0 1 100 18446744073709552",
                "latency '18446744073709552'",
            ),
            (
                "modify u0 flow 0 1 18446744073709551615",
                "bandwidth '18446744073709551615'",
            ),
        ] {
            let err = flow(line).unwrap_err();
            assert_eq!(err.kind(), "parse", "{line}");
            assert_eq!(err.to_string(), format!("bad {token}"), "{line}");
        }
        // The bounds are exact: one more overflows the unit constructor.
        assert!(MAX_MBPS.checked_mul(1_000_000).is_some());
        assert!((MAX_MBPS + 1).checked_mul(1_000_000).is_none());
        assert!(MAX_LAT_US
            .checked_mul(1_000)
            .is_some_and(|ns| ns < u64::MAX));
        assert!((MAX_LAT_US + 1).checked_mul(1_000).is_none());
    }

    #[test]
    fn overflows_are_typed_and_checked_first() {
        let long = format!("add u0 flow 1 2 {}", "9".repeat(MAX_LINE_BYTES));
        let err = parse_command(&long).unwrap_err();
        assert_eq!(err.kind(), "overflow");
        assert!(matches!(
            err,
            ProtocolError::Overflow {
                what: "line bytes",
                ..
            }
        ));

        let many_flows = format!("add u0 {}", vec!["flow 1 2 10"; MAX_FLOWS + 1].join(" ; "));
        assert!(
            many_flows.len() <= MAX_LINE_BYTES,
            "cap ordering assumption"
        );
        let err = parse_command(&many_flows).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Overflow {
                what: "flow clauses",
                limit: MAX_FLOWS,
                ..
            }
        ));

        let many_faults = format!(
            "fault link {}",
            (0..=MAX_FAULT_INDICES)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let err = parse_command(&many_faults).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Overflow {
                what: "fault indices",
                ..
            }
        ));

        // Syntax errors keep the parse kind.
        assert_eq!(parse_command("frobnicate").unwrap_err().kind(), "parse");
    }

    #[test]
    fn flow_specs_round_trip_through_display() {
        for line in ["add u0 flow 1 2 250 30", "add u0 flow 9 4 77"] {
            let Some(Command::Add { flows, .. }) = parse_command(line).unwrap() else {
                panic!("parsed {line}");
            };
            assert_eq!(format!("add u0 {}", flows[0]), line);
        }
    }
}
