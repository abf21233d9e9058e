//! Verdict checks: every answer is compared with its known tight threshold.

/// Counts of checked answers over one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Answers checked (cold verdicts and repeat hits).
    pub attempted: usize,
    /// Answers that were loose, uncertified, errors, or broke a hit invariant.
    pub failed: usize,
    /// Answers that were certified.
    pub certified: usize,
    /// Answers equal to the known tight threshold.
    pub tight: usize,
}

/// One answer as the benchmark sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A threshold, with whether it was certified.
    Threshold { value: i64, certified: bool },
    /// No threshold: an analysis error or an error frame.
    Error,
}

impl Tally {
    /// Checks `answer` against the known tight threshold of pair `name`, printing the
    /// reason of any failure to stderr. Returns `true` when the answer is certified and
    /// tight.
    pub fn check(&mut self, name: &str, answer: Answer, tight: i64) -> bool {
        self.attempted += 1;
        let (value, certified) = match answer {
            Answer::Threshold { value, certified } => (value, certified),
            Answer::Error => {
                self.failed += 1;
                eprintln!("FAILED {name}: no threshold (error)");
                return false;
            }
        };
        if certified {
            self.certified += 1;
        }
        if value < tight {
            self.failed += 1;
            eprintln!("UNSOUND {name}: threshold {value} is below the known answer {tight}");
            return false;
        }
        if value == tight {
            self.tight += 1;
        }
        let ok = certified && value == tight;
        if !ok {
            self.failed += 1;
            let why = if certified { "loose" } else { "uncertified" };
            eprintln!("FAILED {name}: {why} threshold {value} (known answer {tight})");
        }
        ok
    }

    /// Records a failure of a check other than the threshold (for example a cache
    /// hit that pivoted) on an answer already counted by [`Tally::check`].
    pub fn fail(&mut self, name: &str, reason: &str) {
        self.failed += 1;
        eprintln!("FAILED {name}: {reason}");
    }

    /// Share of answers that were certified.
    pub fn certified_ratio(&self) -> f64 {
        ratio(self.certified, self.attempted)
    }

    /// Share of answers equal to the known answer.
    pub fn tight_ratio(&self) -> f64 {
        ratio(self.tight, self.attempted)
    }

    /// `true` when every answer passed every check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
