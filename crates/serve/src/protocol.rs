//! The line-delimited wire protocol.
//!
//! Every frame is one `\n`-terminated line of UTF-8 (CR before the LF is
//! tolerated). Client → server:
//!
//! ```text
//! REQ <id> <instance>     solve one instance
//! PING                    liveness probe
//! STATS                   metrics snapshot
//! DRAIN                   graceful shutdown: stop accepting, finish
//!                         in-flight work, flush the final report
//! SESSION begin <policy> [alpha]
//!                         open this connection's online session under
//!                         a sim power policy (timeout|sleep|never;
//!                         alpha defaults to 1)
//! SESSION arrive <t>      reveal the next arrival at slot t (≥ the
//!                         session frontier)
//! SESSION step [n]        reveal n (default 1) idle slots, no arrival
//! SESSION end             close the session: solve the revealed
//!                         instance offline, report the realized
//!                         competitive ratio
//! ```
//!
//! `<id>` is an opaque client-chosen token (`[A-Za-z0-9_.:-]`, ≤ 64
//! bytes) echoed back on the response; ids must be unique among a
//! connection's in-flight requests. `<instance>` is the
//! `gaps_workloads::serialize` text of exactly one instance with every
//! newline replaced by `;` (the instance grammar never contains a
//! literal `;`, so the encoding is trivially reversible).
//!
//! Server → client:
//!
//! ```text
//! RES <id> <body>         result; <body> is byte-identical to the
//!                         `gaps batch` result line minus its index
//! ERR <id> <reason>       request failed; `-` as <id> when the frame
//!                         was too mangled to carry one
//! BUSY <id>               cache miss refused: admission queue full —
//!                         backpressure, retry (hits are never refused)
//! PONG                    PING reply
//! STATS v4 … STATS end    snapshot block, one `stat <key> <value>`
//!                         line per metric (v2 added pool_workers,
//!                         per-solver p50, per-policy ratio rows; v3
//!                         added the `search.*` branch-and-bound rows;
//!                         v4 keeps only nodes expanded and the
//!                         component histogram among them)
//! DRAINING                DRAIN acknowledged
//! SESSION begun …         session opened
//! SESSION t=… …           arrive/step acknowledged with the live state
//! SESSION end …           closing summary with the competitive ratio
//! ```
//!
//! `SESSION` frames are handled synchronously on the connection's
//! reader thread (a session is inherently serial — each decision
//! depends on the previous slot), so they never touch the solve pool's
//! admission queue; a malformed or out-of-order `SESSION` verb is
//! answered with `ERR -` and neither the session nor the connection
//! dies.
//!
//! Responses to different requests may interleave in any order; the id
//! is the only correlation. Malformed input of any shape — truncated
//! lines, oversized frames, invalid UTF-8, unknown verbs, an instance
//! too large for the DP it routes to — is answered with `ERR`, never by
//! dropping the connection or the process.

use std::io::BufRead;

/// Hard per-frame byte budget. A line longer than this is consumed (so
/// the stream stays synchronized) and answered with `ERR`, bounding
/// per-connection memory no matter what the client sends.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Request-id character policy (see module docs).
pub const MAX_ID_BYTES: usize = 64;

/// One parsed client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Solve one instance; `text` is the decoded (newline-restored)
    /// instance text.
    Req {
        /// Client-chosen correlation token.
        id: String,
        /// Instance text in `gaps_workloads::serialize` format.
        text: String,
    },
    /// Liveness probe.
    Ping,
    /// Metrics snapshot request.
    Stats,
    /// Graceful-shutdown request.
    Drain,
    /// Online-session verb (per-connection state machine).
    Session(SessionCmd),
}

/// The `SESSION` sub-verbs. Argument validation that needs session
/// state (frontier ordering, advance caps) happens in the handler; the
/// parser only guarantees shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionCmd {
    /// `SESSION begin <policy> [alpha]` — open a session.
    Begin {
        /// Online policy wire name (validated against the sim crate's
        /// roster by the handler).
        policy: String,
        /// Wake-up cost α (defaults to 1).
        alpha: u64,
    },
    /// `SESSION arrive <t>` — reveal the next arrival.
    Arrive {
        /// Arrival slot.
        t: i64,
    },
    /// `SESSION step [n]` — reveal `n` idle slots (defaults to 1).
    Step {
        /// Idle slots to reveal.
        n: u64,
    },
    /// `SESSION end` — close and report the ratio.
    End,
}

/// Why a frame was rejected; `id` is present when the frame carried a
/// usable request id to address the `ERR` to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Echoable request id, if one was recovered.
    pub id: Option<String>,
    /// Human-readable reason (single line).
    pub reason: String,
}

impl FrameError {
    fn anon(reason: impl Into<String>) -> FrameError {
        FrameError {
            id: None,
            reason: reason.into(),
        }
    }
}

/// How reading one raw line failed (the line itself was consumed, so
/// the caller can keep reading the stream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineError {
    /// The line exceeded [`MAX_FRAME_BYTES`].
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
}

impl LineError {
    /// Wire-facing reason text.
    pub fn reason(&self) -> String {
        match self {
            LineError::TooLong => format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
            LineError::BadUtf8 => "frame is not valid UTF-8".to_string(),
        }
    }
}

/// Read one `\n`-terminated line with a hard length cap.
///
/// Returns `Ok(None)` at EOF. An oversized or non-UTF-8 line is fully
/// consumed (through its newline) and reported as `Some(Err(..))`, so
/// the protocol stays line-synchronized and the daemon can answer `ERR`
/// and keep serving. A final line without a trailing newline is
/// delivered; a trailing CR is stripped.
pub fn read_line_limited<R: BufRead>(
    reader: &mut R,
    limit: usize,
) -> std::io::Result<Option<Result<String, LineError>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && buf.len() + pos > limit {
                    overflow = true;
                }
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if !overflow && buf.len() + len > limit {
                    overflow = true;
                    buf.clear();
                }
                if !overflow {
                    buf.extend_from_slice(chunk);
                }
                reader.consume(len);
            }
        }
    }
    if overflow {
        return Ok(Some(Err(LineError::TooLong)));
    }
    match String::from_utf8(buf) {
        Ok(mut line) => {
            if line.ends_with('\r') {
                line.pop();
            }
            Ok(Some(Ok(line)))
        }
        Err(_) => Ok(Some(Err(LineError::BadUtf8))),
    }
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_BYTES
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Parse one already-read line into a [`Frame`].
///
/// Blank lines and `#` comments parse to `Ok(None)` (ignored), matching
/// the instance file format's conventions.
pub fn parse_frame(line: &str) -> Result<Option<Frame>, FrameError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "PING" => Ok(Some(Frame::Ping)),
        "STATS" => Ok(Some(Frame::Stats)),
        "DRAIN" => Ok(Some(Frame::Drain)),
        "REQ" => {
            let (id, payload) = match rest.split_once(' ') {
                Some((id, p)) => (id.trim(), p.trim()),
                None => (rest, ""),
            };
            if !valid_id(id) {
                return Err(FrameError::anon(format!(
                    "bad request id (want 1..={MAX_ID_BYTES} bytes of [A-Za-z0-9_.:-])"
                )));
            }
            if payload.is_empty() {
                return Err(FrameError {
                    id: Some(id.to_string()),
                    reason: "REQ carries no instance payload".to_string(),
                });
            }
            Ok(Some(Frame::Req {
                id: id.to_string(),
                text: payload.replace(';', "\n"),
            }))
        }
        "SESSION" => parse_session(rest).map(|cmd| Some(Frame::Session(cmd))),
        other => Err(FrameError::anon(format!("unknown verb {other:?}"))),
    }
}

/// Parse the words after `SESSION `.
fn parse_session(rest: &str) -> Result<SessionCmd, FrameError> {
    let mut words = rest.split_whitespace();
    let sub = words.next().unwrap_or("");
    let cmd = match sub {
        "begin" => {
            let policy = words
                .next()
                .ok_or_else(|| FrameError::anon("SESSION begin needs a policy name"))?;
            let alpha = match words.next() {
                None => 1,
                Some(raw) => raw.parse::<u64>().map_err(|_| {
                    FrameError::anon(format!("SESSION begin: bad alpha {raw:?} (want a u64)"))
                })?,
            };
            SessionCmd::Begin {
                policy: policy.to_string(),
                alpha,
            }
        }
        "arrive" => {
            let raw = words
                .next()
                .ok_or_else(|| FrameError::anon("SESSION arrive needs an arrival slot"))?;
            let t = raw.parse::<i64>().map_err(|_| {
                FrameError::anon(format!("SESSION arrive: bad slot {raw:?} (want an i64)"))
            })?;
            SessionCmd::Arrive { t }
        }
        "step" => {
            let n = match words.next() {
                None => 1,
                Some(raw) => raw.parse::<u64>().map_err(|_| {
                    FrameError::anon(format!("SESSION step: bad count {raw:?} (want a u64)"))
                })?,
            };
            SessionCmd::Step { n }
        }
        "end" => SessionCmd::End,
        "" => {
            return Err(FrameError::anon(
                "SESSION needs a sub-verb (begin|arrive|step|end)",
            ))
        }
        other => {
            return Err(FrameError::anon(format!(
                "unknown SESSION sub-verb {other:?} (begin|arrive|step|end)"
            )))
        }
    };
    if let Some(extra) = words.next() {
        return Err(FrameError::anon(format!(
            "SESSION {sub}: unexpected trailing argument {extra:?}"
        )));
    }
    Ok(cmd)
}

/// Encode an instance's serialized text as a one-line `REQ` payload
/// (the inverse of the decode in [`parse_frame`]). Exposed for clients
/// and tests.
pub fn encode_payload(instance_text: &str) -> String {
    instance_text.trim_end_matches('\n').replace('\n', ";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], limit: usize) -> Vec<Result<String, LineError>> {
        let mut reader = BufReader::with_capacity(8, input);
        let mut out = Vec::new();
        while let Some(item) = read_line_limited(&mut reader, limit).expect("in-memory io") {
            out.push(item);
        }
        out
    }

    #[test]
    fn reads_lines_and_strips_cr() {
        let lines = read_all(b"alpha\r\nbeta\ngamma", 100);
        assert_eq!(
            lines,
            vec![
                Ok("alpha".to_string()),
                Ok("beta".to_string()),
                Ok("gamma".to_string()),
            ]
        );
    }

    #[test]
    fn oversized_line_is_consumed_and_reported() {
        let input = format!("{}\nshort\n", "x".repeat(50));
        let lines = read_all(input.as_bytes(), 10);
        assert_eq!(
            lines,
            vec![Err(LineError::TooLong), Ok("short".to_string())],
            "stream stays synchronized after the oversized frame"
        );
    }

    #[test]
    fn exactly_at_the_limit_is_fine() {
        let input = format!("{}\n", "y".repeat(10));
        let lines = read_all(input.as_bytes(), 10);
        assert_eq!(lines, vec![Ok("y".repeat(10))]);
    }

    #[test]
    fn bad_utf8_is_consumed_and_reported() {
        let lines = read_all(b"ok\n\xff\xfe bad\nok2\n", 100);
        assert_eq!(
            lines,
            vec![
                Ok("ok".to_string()),
                Err(LineError::BadUtf8),
                Ok("ok2".to_string()),
            ]
        );
    }

    #[test]
    fn parses_control_verbs() {
        assert_eq!(parse_frame("PING").unwrap(), Some(Frame::Ping));
        assert_eq!(parse_frame("STATS").unwrap(), Some(Frame::Stats));
        assert_eq!(parse_frame("DRAIN").unwrap(), Some(Frame::Drain));
        assert_eq!(parse_frame("").unwrap(), None);
        assert_eq!(parse_frame("  # comment").unwrap(), None);
    }

    #[test]
    fn parses_req_and_decodes_payload() {
        let frame = parse_frame("REQ job-1 instance v1;processors 1;job 0 2").unwrap();
        assert_eq!(
            frame,
            Some(Frame::Req {
                id: "job-1".to_string(),
                text: "instance v1\nprocessors 1\njob 0 2".to_string(),
            })
        );
    }

    #[test]
    fn rejects_malformed_reqs_with_addressable_errors() {
        // No id at all.
        let err = parse_frame("REQ").unwrap_err();
        assert_eq!(err.id, None);
        assert!(err.reason.contains("bad request id"));
        // An id full of junk.
        let err = parse_frame("REQ sp@ce!id instance v1").unwrap_err();
        assert_eq!(err.id, None);
        // Overlong id.
        let long = "a".repeat(MAX_ID_BYTES + 1);
        assert!(parse_frame(&format!("REQ {long} multi v1")).is_err());
        // Id fine, payload missing: the error is addressable.
        let err = parse_frame("REQ ok-id").unwrap_err();
        assert_eq!(err.id.as_deref(), Some("ok-id"));
        assert!(err.reason.contains("payload"));
        // Unknown verb.
        let err = parse_frame("SOLVE x instance v1").unwrap_err();
        assert!(err.reason.contains("unknown verb"));
    }

    #[test]
    fn parses_session_verbs() {
        assert_eq!(
            parse_frame("SESSION begin timeout 3").unwrap(),
            Some(Frame::Session(SessionCmd::Begin {
                policy: "timeout".to_string(),
                alpha: 3,
            }))
        );
        assert_eq!(
            parse_frame("SESSION begin sleep").unwrap(),
            Some(Frame::Session(SessionCmd::Begin {
                policy: "sleep".to_string(),
                alpha: 1,
            })),
            "alpha defaults to 1"
        );
        assert_eq!(
            parse_frame("SESSION arrive 42").unwrap(),
            Some(Frame::Session(SessionCmd::Arrive { t: 42 }))
        );
        assert_eq!(
            parse_frame("SESSION step").unwrap(),
            Some(Frame::Session(SessionCmd::Step { n: 1 }))
        );
        assert_eq!(
            parse_frame("SESSION step 7").unwrap(),
            Some(Frame::Session(SessionCmd::Step { n: 7 }))
        );
        assert_eq!(
            parse_frame("SESSION end").unwrap(),
            Some(Frame::Session(SessionCmd::End))
        );
    }

    #[test]
    fn rejects_malformed_session_verbs() {
        for (line, needle) in [
            ("SESSION", "sub-verb"),
            ("SESSION settle", "unknown SESSION sub-verb"),
            ("SESSION begin", "needs a policy"),
            ("SESSION begin timeout nine", "bad alpha"),
            ("SESSION begin timeout 2 extra", "trailing"),
            ("SESSION arrive", "needs an arrival"),
            ("SESSION arrive soon", "bad slot"),
            ("SESSION step minus", "bad count"),
            ("SESSION end now", "trailing"),
        ] {
            let err = parse_frame(line).unwrap_err();
            assert_eq!(err.id, None, "{line}");
            assert!(err.reason.contains(needle), "{line}: {}", err.reason);
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let text = "multi v1\njob 1 4\njob 2\n";
        let encoded = encode_payload(text);
        assert!(!encoded.contains('\n'));
        let frame = parse_frame(&format!("REQ r1 {encoded}")).unwrap().unwrap();
        let Frame::Req { text: decoded, .. } = frame else {
            panic!("expected REQ");
        };
        assert_eq!(decoded, text.trim_end_matches('\n'));
    }
}
