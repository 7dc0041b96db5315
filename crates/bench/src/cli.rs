//! The one `--flag value` parser behind every harness binary, and the one
//! JSON writer behind every `BENCH_*.json`.
//!
//! Parsing never exits the process: it returns a [`FlagError`] that names
//! the offending flag. Only [`parse_args`], called from a binary's `main`,
//! prints the error with the binary's usage and exits 2.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use serde::Serialize;

use crate::harness::Scale;

/// A rejected command line: an unknown flag, a flag without its value, or
/// a value the flag does not accept. The message names the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError(pub String);

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A command line split into `--flag value` pairs, every flag checked
/// against the binary's flag set.
#[derive(Debug)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Split `args` into `--flag value` pairs. `--help`/`-h`, a flag not in
    /// `known` and a flag without a value are errors.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        known: &[&str],
    ) -> Result<Flags, FlagError> {
        let mut pairs = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                return Err(FlagError("help requested".to_owned()));
            }
            if !known.contains(&flag.as_str()) {
                return Err(FlagError(format!("unknown flag {flag}")));
            }
            let value = args.next().ok_or_else(|| FlagError(format!("{flag} needs a value")))?;
            pairs.push((flag, value));
        }
        Ok(Flags { pairs })
    }

    /// `flag`'s value as `read` accepts it, or `None` when the flag is
    /// absent. Every occurrence must be accepted; the last one wins.
    /// `want` describes the accepted values in the error.
    pub fn get<T>(
        &self,
        flag: &str,
        want: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, FlagError> {
        let mut last = None;
        for (_, value) in self.pairs.iter().filter(|(f, _)| f == flag) {
            let parsed = read(value)
                .ok_or_else(|| FlagError(format!("bad {flag} value {value:?} (want {want})")))?;
            last = Some(parsed);
        }
        Ok(last)
    }

    /// `flag` parsed as a number, or `default` when absent.
    pub fn number<T: FromStr>(&self, flag: &str, default: T) -> Result<T, FlagError> {
        Ok(self.get(flag, "a number", |v| v.parse().ok())?.unwrap_or(default))
    }

    /// `flag`'s raw value, or `None` when absent.
    pub fn optional_text(&self, flag: &str) -> Option<String> {
        self.pairs.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.clone())
    }

    /// `flag`'s raw value, or `default` when absent.
    pub fn text(&self, flag: &str, default: &str) -> String {
        self.optional_text(flag).unwrap_or_else(|| default.to_owned())
    }

    /// `--scale smoke|default|full`, smoke by default.
    pub fn scale(&self) -> Result<Scale, FlagError> {
        Ok(self.get("--scale", "smoke|default|full", Scale::parse)?.unwrap_or(Scale::Smoke))
    }

    /// `--jobs N` with `N >= 1`, or `default` when absent.
    pub fn jobs(&self, default: usize) -> Result<usize, FlagError> {
        let at_least_one = |v: &str| v.parse().ok().filter(|&n: &usize| n >= 1);
        Ok(self.get("--jobs", "an integer >= 1", at_least_one)?.unwrap_or(default))
    }
}

/// Parse this process's arguments with `parse`. On a [`FlagError`], print
/// it and `usage` to stderr and exit with status 2.
pub fn parse_args<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, FlagError>) -> T {
    parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

/// Write `value` to `path` as pretty JSON with a trailing newline, creating
/// the parent directory, and note the path on stderr.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let path = path.as_ref();
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json + "\n")?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str], known: &[&str]) -> Result<Flags, FlagError> {
        Flags::parse(args.iter().map(|s| s.to_string()), known)
    }

    #[test]
    fn the_last_occurrence_wins_but_every_one_must_parse() {
        let f = flags(&["--seed", "1", "--seed", "2"], &["--seed"]).unwrap();
        assert_eq!(f.number("--seed", 0u64), Ok(2));
        let f = flags(&["--seed", "x", "--seed", "2"], &["--seed"]).unwrap();
        assert!(f.number("--seed", 0u64).unwrap_err().0.contains("--seed"));
        assert_eq!(f.number("--absent", 7u64), Ok(7));
    }

    #[test]
    fn help_is_an_error_and_an_empty_flag_set_takes_no_flags() {
        assert!(flags(&[], &[]).is_ok());
        assert_eq!(flags(&["--help"], &[]).unwrap_err().0, "help requested");
        assert_eq!(flags(&["-h"], &[]).unwrap_err().0, "help requested");
        assert_eq!(flags(&["--seed", "1"], &[]).unwrap_err().0, "unknown flag --seed");
    }
}
