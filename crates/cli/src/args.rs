//! Minimal flag parser for the CLI — positional arguments plus
//! `--flag value` pairs, with typed accessors and unknown-flag detection.
//! Deliberately dependency-free (the workspace keeps its dependency
//! surface to the crates DESIGN.md justifies).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: positionals in order, flags as key → value, and
/// boolean switches as a presence set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Error produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The unparsable text.
        value: String,
    },
    /// A flag not in the accepted set appeared.
    UnknownFlag(String),
    /// A required positional argument is absent.
    MissingPositional(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "flag --{flag} has invalid value {value:?}")
            }
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::MissingPositional(name) => write!(f, "missing required argument <{name}>"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program/subcommand names), accepting only
    /// the flags in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for unknown flags or flags missing a value.
    pub fn parse<I>(argv: I, allowed: &[&str]) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        Self::parse_with_switches(argv, allowed, &[])
    }

    /// Parses `argv` accepting valued `--flag value` pairs from `allowed`
    /// plus boolean `--switch` names (no value) from `switches`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for unknown flags or valued flags missing a
    /// value.
    pub fn parse_with_switches<I>(
        argv: I,
        allowed: &[&str],
        switches: &[&str],
    ) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = Args::default();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else if allowed.contains(&name) {
                    let value =
                        it.next().ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    out.flags.insert(name.to_string(), value);
                } else {
                    return Err(ArgError::UnknownFlag(name.to_string()));
                }
            } else {
                out.positionals.push(a);
            }
        }
        Ok(out)
    }

    /// Whether the boolean switch `--name` was present.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The `i`-th positional argument.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The `i`-th positional, required.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingPositional`] when absent.
    pub fn required(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positional(i).ok_or(ArgError::MissingPositional(name))
    }

    /// A string flag.
    #[must_use]
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: name.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// An optional typed flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn flag_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError::BadValue { flag: name.to_string(), value: v.clone() }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn positionals_and_flags_separate() {
        let a = Args::parse(argv(&["kernel1", "--blocks", "64", "extra"]), &["blocks"]).unwrap();
        assert_eq!(a.positional(0), Some("kernel1"));
        assert_eq!(a.positional(1), Some("extra"));
        assert_eq!(a.flag("blocks"), Some("64"));
        assert_eq!(a.flag_or("blocks", 0usize).unwrap(), 64);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = Args::parse(argv(&["--bogus", "1"]), &["blocks"]).unwrap_err();
        assert_eq!(e, ArgError::UnknownFlag("bogus".into()));
    }

    #[test]
    fn missing_value_is_rejected() {
        let e = Args::parse(argv(&["--blocks"]), &["blocks"]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("blocks".into()));
    }

    #[test]
    fn bad_typed_value_is_reported() {
        let a = Args::parse(argv(&["--blocks", "lots"]), &["blocks"]).unwrap();
        assert!(matches!(a.flag_or("blocks", 1usize), Err(ArgError::BadValue { .. })));
        assert!(matches!(a.flag_opt::<usize>("blocks"), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn defaults_and_required() {
        let a = Args::parse(argv(&[]), &["blocks"]).unwrap();
        assert_eq!(a.flag_or("blocks", 7usize).unwrap(), 7);
        assert_eq!(a.flag_opt::<usize>("blocks").unwrap(), None);
        assert!(matches!(a.required(0, "kernel"), Err(ArgError::MissingPositional("kernel"))));
    }

    #[test]
    fn switches_parse_without_values() {
        let a = Args::parse_with_switches(
            argv(&["--oracle", "--blocks", "8", "kernel1"]),
            &["blocks"],
            &["oracle"],
        )
        .unwrap();
        assert!(a.switch("oracle"));
        assert!(!a.switch("json"));
        assert_eq!(a.flag_or("blocks", 0usize).unwrap(), 8);
        assert_eq!(a.positional(0), Some("kernel1"));
        // A switch name is not a valued flag and vice versa.
        let e = Args::parse_with_switches(argv(&["--oracle", "x"]), &["blocks"], &[]).unwrap_err();
        assert_eq!(e, ArgError::UnknownFlag("oracle".into()));
    }

    #[test]
    fn errors_render_helpfully() {
        assert_eq!(ArgError::UnknownFlag("x".into()).to_string(), "unknown flag --x");
        assert_eq!(
            ArgError::MissingPositional("kernel").to_string(),
            "missing required argument <kernel>"
        );
    }
}
