//! Interval profiles and the interval construction algorithm
//! (Section III of the paper).

mod algorithm;
mod profile;
mod summary;

pub use algorithm::{build_profile, ProfileBuilder};
pub(crate) use profile::insts_and_perfs;
pub use profile::{Interval, IntervalProfile, StallCause};
pub use summary::{summarize_population, PopulationSummary, ProfileSummary};
