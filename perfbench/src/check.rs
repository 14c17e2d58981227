//! The answer check and the failure tally.
//!
//! Every reply is compared byte for byte with the body
//! `Engine::solve_request` gives for the same instance (for `gaps
//! batch`, with the line `Engine::run_batch` gives). A mismatch is a
//! failure of its own kind, `wrong`, next to refusals (`BUSY`), errors
//! (`ERR` or an unparseable reply) and replies that never came.

/// What one reply line says, for request ids and bodies to check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `RES <id> <body>`.
    Res {
        /// Request id.
        id: &'a str,
        /// Result body.
        body: &'a str,
    },
    /// `BUSY <id>`: admission refused.
    Busy {
        /// Request id.
        id: &'a str,
    },
    /// `ERR <id> <reason>`, or any line this harness cannot parse.
    Err {
        /// Request id (`-` or empty when the daemon could not tell).
        id: &'a str,
    },
}

/// Parse one reply line (newline already stripped).
pub fn parse_reply(line: &str) -> Reply<'_> {
    let mut words = line.splitn(3, ' ');
    let verb = words.next().unwrap_or("");
    let id = words.next().unwrap_or("");
    match verb {
        "RES" => Reply::Res {
            id,
            body: words.next().unwrap_or(""),
        },
        "BUSY" => Reply::Busy { id },
        _ => Reply::Err { id },
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Answered with the expected body.
    Correct,
    /// Answered with another body.
    Wrong,
    /// Refused with `BUSY`.
    Busy,
    /// `ERR` or an unparseable reply.
    Err,
    /// No reply within the deadline.
    Timeout,
}

impl Verdict {
    /// Judge a reply against the expected body.
    pub fn of(reply: &Reply<'_>, expected: &str) -> Verdict {
        match reply {
            Reply::Res { body, .. } if *body == expected => Verdict::Correct,
            Reply::Res { .. } => Verdict::Wrong,
            Reply::Busy { .. } => Verdict::Busy,
            Reply::Err { .. } => Verdict::Err,
        }
    }
}

/// Judge the reply line to request `id`: a reply addressed to another
/// request is wrong even if its body matches.
pub fn judge(line: &str, id: &str, expected: &str) -> Verdict {
    let reply = parse_reply(line);
    let reply_id = match &reply {
        Reply::Res { id, .. } | Reply::Busy { id } | Reply::Err { id } => *id,
    };
    match Verdict::of(&reply, expected) {
        Verdict::Correct if reply_id != id => Verdict::Wrong,
        verdict => verdict,
    }
}

/// Requests sent and how they ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent (or batch answers due).
    pub sent: u64,
    /// Correct answers.
    pub correct: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// `BUSY` refusals.
    pub busy: u64,
    /// `ERR` replies.
    pub err: u64,
    /// No reply within the deadline.
    pub timeout: u64,
}

impl Tally {
    /// Count one request's verdict.
    pub fn add(&mut self, verdict: Verdict) {
        self.sent += 1;
        match verdict {
            Verdict::Correct => self.correct += 1,
            Verdict::Wrong => self.wrong += 1,
            Verdict::Busy => self.busy += 1,
            Verdict::Err => self.err += 1,
            Verdict::Timeout => self.timeout += 1,
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.busy += other.busy;
        self.err += other.err;
        self.timeout += other.timeout;
    }

    /// Requests that did not end in a correct answer.
    pub fn failed(&self) -> u64 {
        self.wrong + self.busy + self.err + self.timeout
    }

    /// Replies the program produced an answer for (right or wrong).
    pub fn answers(&self) -> u64 {
        self.correct + self.wrong
    }
}

/// Check `gaps batch` stdout line by line against the expected lines.
/// A missing line counts as a timeout, an extra line as an error.
pub fn check_batch_output(expected: &[String], stdout: &str) -> Tally {
    let mut tally = Tally::default();
    let mut got = stdout.lines();
    for want in expected {
        tally.add(match got.next() {
            Some(line) if line == want => Verdict::Correct,
            Some(_) => Verdict::Wrong,
            None => Verdict::Timeout,
        });
    }
    tally.err += got.count() as u64;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_body_is_wrong() {
        let want = "one n=8 gaps=2 solver=baptiste_dp";
        let good = format!("RES 7 {want}");
        assert_eq!(Verdict::of(&parse_reply(&good), want), Verdict::Correct);
        for bad in [
            "RES 7 one n=8 gaps=3 solver=baptiste_dp",
            "RES 7 one n=8 gaps=2 solver=baptiste_dp ",
            "RES 7",
        ] {
            assert_eq!(
                Verdict::of(&parse_reply(bad), want),
                Verdict::Wrong,
                "{bad}"
            );
        }
        assert_eq!(Verdict::of(&parse_reply("BUSY 7"), want), Verdict::Busy);
        assert_eq!(Verdict::of(&parse_reply("ERR 7 nope"), want), Verdict::Err);
        assert_eq!(Verdict::of(&parse_reply("garbage"), want), Verdict::Err);
        assert_eq!(judge(&good, "7", want), Verdict::Correct);
        assert_eq!(judge(&good, "8", want), Verdict::Wrong);
    }

    #[test]
    fn batch_output_is_checked_line_by_line() {
        let expected: Vec<String> = vec!["0 one n=2 gaps=0 solver=baptiste_dp".into(); 3];
        let good = expected.join("\n") + "\n";
        let t = check_batch_output(&expected, &good);
        assert_eq!((t.sent, t.correct, t.failed()), (3, 3, 0));
        let corrupted = good.replacen("gaps=0", "gaps=1", 1);
        let t = check_batch_output(&expected, &corrupted);
        assert_eq!((t.correct, t.wrong), (2, 1));
        let t = check_batch_output(&expected, "");
        assert_eq!(t.timeout, 3);
    }
}
