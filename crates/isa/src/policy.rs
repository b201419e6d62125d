//! Warp scheduling policies modeled by the paper (Section IV-A).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A request word (`--policy gto`, `"model": "full"`) outside its type's
/// vocabulary; each front end renders it in its own error shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWord {
    /// The word that was given.
    pub value: String,
    /// The accepted words, `|`-separated as usage text shows them.
    pub expected: &'static str,
}

impl fmt::Display for UnknownWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "must be {}, got {:?}", self.expected, self.value)
    }
}

/// The two warp scheduling policies GPUMech models and the timing oracle
/// implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Round-robin: issue one instruction from each ready warp in turn,
    /// regardless of whether other warps are stalled.
    RoundRobin,
    /// Greedy-then-oldest (Rogers et al., MICRO 2012): keep issuing from
    /// the same warp until it stalls, then switch to the oldest ready warp.
    GreedyThenOldest,
}

impl SchedulingPolicy {
    /// Both policies, in the order the paper evaluates them.
    pub const ALL: [SchedulingPolicy; 2] =
        [SchedulingPolicy::RoundRobin, SchedulingPolicy::GreedyThenOldest];
}

impl fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingPolicy::RoundRobin => f.write_str("rr"),
            SchedulingPolicy::GreedyThenOldest => f.write_str("gto"),
        }
    }
}

impl FromStr for SchedulingPolicy {
    type Err = UnknownWord;

    /// Parses the words [`fmt::Display`] prints: `rr` or `gto`.
    fn from_str(s: &str) -> Result<Self, UnknownWord> {
        match s {
            "rr" => Ok(SchedulingPolicy::RoundRobin),
            "gto" => Ok(SchedulingPolicy::GreedyThenOldest),
            other => Err(UnknownWord { value: other.to_string(), expected: "rr|gto" }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn display_names_parse_back() {
        assert_eq!(SchedulingPolicy::RoundRobin.to_string(), "rr");
        assert_eq!(SchedulingPolicy::GreedyThenOldest.to_string(), "gto");
        for p in SchedulingPolicy::ALL {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
        let e = "fifo".parse::<SchedulingPolicy>().unwrap_err();
        assert_eq!(e.to_string(), "must be rr|gto, got \"fifo\"");
    }
}
