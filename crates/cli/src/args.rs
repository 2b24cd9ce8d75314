//! Minimal flag parser (no external CLI dependency).
//!
//! Supports `--flag value` and `--flag=value` forms plus a positional
//! subcommand chain; unknown flags are an error so typos fail loudly.

use std::cell::Cell;
use std::collections::BTreeMap;

/// Parsed command line: positional words followed by `--key value` flags.
/// A flag may repeat (`--input a.json --input b.json`); [`Args::flag`]
/// returns the last occurrence and [`Args::flag_values`] all of them.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
    /// Set when a lookup rejected the command line itself (unknown flag,
    /// missing or unparseable value), so the caller knows to print usage.
    misused: Cell<bool>,
}

impl Args {
    /// Parse raw arguments (without the program name).
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    out.flags
                        .entry(key.to_string())
                        .or_default()
                        .push(value.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{stripped} expects a value"))?;
                    out.flags.entry(stripped.to_string()).or_default().push(value);
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Whether a lookup on these arguments failed: the error the command
    /// returns is then about the command line, not the data it names.
    pub fn misused(&self) -> bool {
        self.misused.get()
    }

    /// Record an argument error and hand back its message.
    pub fn misuse(&self, msg: String) -> String {
        self.misused.set(true);
        msg
    }

    /// Positional word at `idx`.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// Raw flag value (the last occurrence when repeated).
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn flag_values(&self, key: &str) -> impl Iterator<Item = &str> {
        self.flags
            .get(key)
            .into_iter()
            .flat_map(|v| v.iter().map(String::as_str))
    }

    /// Parse a flag into any `FromStr` type, with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| self.misuse(format!("invalid value for --{key}: {v}"))),
        }
    }

    /// Require a flag to be present and parseable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .flag(key)
            .ok_or_else(|| self.misuse(format!("missing required flag --{key}")))?;
        v.parse()
            .map_err(|_| self.misuse(format!("invalid value for --{key}: {v}")))
    }

    /// Error on flags not in the allow list (catches typos).
    pub fn check_known(&self, known: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(self.misuse(format!(
                    "unknown flag --{key} (expected one of: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["gen", "kpartite", "--k", "4", "--n=8"]);
        assert_eq!(a.positional(0), Some("gen"));
        assert_eq!(a.positional(1), Some("kpartite"));
        assert_eq!(a.flag("k"), Some("4"));
        assert_eq!(a.flag_or("n", 0usize).unwrap(), 8);
        assert_eq!(a.flag_or("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Args::parse(vec!["--k".to_string()]).is_err());
    }

    #[test]
    fn unknown_flag_detected() {
        let a = parse(&["--oops", "1"]);
        assert!(a.check_known(&["k", "n"]).is_err());
        assert!(a.check_known(&["oops"]).is_ok());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&["x"]);
        assert!(!a.misused());
        assert!(a.require::<usize>("k").is_err());
        assert!(a.misused(), "a missing flag is an argument error");
    }

    #[test]
    fn lookups_that_succeed_are_not_misuse() {
        let a = parse(&["solve", "--n", "8"]);
        assert_eq!(a.require::<usize>("n").unwrap(), 8);
        assert_eq!(a.flag_or("seed", 3u64).unwrap(), 3);
        a.check_known(&["n"]).unwrap();
        assert!(!a.misused());
        assert!(a.flag_or::<u64>("n", 0).is_ok());
        assert!(a.require::<bool>("n").is_err());
        assert!(a.misused(), "an unparseable value is an argument error");
    }

    #[test]
    fn repeated_flag_keeps_every_occurrence() {
        let a = parse(&["batch", "--input", "a.json", "--input=b.json"]);
        assert_eq!(a.flag("input"), Some("b.json"), "flag() is the last one");
        let all: Vec<&str> = a.flag_values("input").collect();
        assert_eq!(all, ["a.json", "b.json"]);
        assert!(a.flag_values("absent").next().is_none());
    }
}
