//! The one argument parser every subcommand uses.

use std::str::FromStr;

/// A malformed command line: reported on stderr with exit code 2.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

/// The arguments after the subcommand name. Each accessor removes what it
/// recognises and [`Args::positionals`] rejects any flag still left, so a
/// mistyped flag or value can never silently fall back to a default.
pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args(args.into_iter().collect())
    }

    /// `flag <value>` parsed as `T`; `default` when the flag is absent.
    pub fn value<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, UsageError> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(default);
        };
        if at + 1 == self.0.len() {
            return Err(UsageError(format!("{flag} needs a value")));
        }
        let raw = self.0.remove(at + 1);
        self.0.remove(at);
        raw.parse()
            .map_err(|_| UsageError(format!("{flag}: cannot parse '{raw}'")))
    }

    /// True when the bare `flag` is present.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    /// Everything no accessor consumed, which must all be positional.
    pub fn positionals(self) -> Result<Vec<String>, UsageError> {
        match self.0.iter().find(|a| a.starts_with('-')) {
            Some(flag) => Err(UsageError(format!("unknown flag '{flag}'"))),
            None => Ok(self.0),
        }
    }

    /// For subcommands that take flags only.
    pub fn no_positionals(self) -> Result<(), UsageError> {
        match self.positionals()?.first() {
            Some(extra) => Err(UsageError(format!("unexpected argument '{extra}'"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn values_switches_and_positionals() {
        let mut a = args("fig8 --sf 0.05 --full fig9");
        assert_eq!(a.value("--sf", 0.01), Ok(0.05));
        assert_eq!(a.value("--queries", 12usize), Ok(12), "absent: default");
        assert!(a.switch("--full"));
        assert!(!a.switch("--mutations"));
        assert_eq!(a.positionals(), Ok(vec!["fig8".into(), "fig9".into()]));
    }

    #[test]
    fn bad_and_missing_values_name_the_flag() {
        let UsageError(msg) = args("--sf abc").value("--sf", 0.01).unwrap_err();
        assert!(msg.contains("--sf") && msg.contains("abc"), "{msg}");
        let UsageError(msg) = args("--sf").value("--sf", 0.01).unwrap_err();
        assert!(
            msg.contains("--sf") && msg.contains("needs a value"),
            "{msg}"
        );
        // A flag where the value should be is a bad value, not a default.
        assert!(args("--sf --full").value("--sf", 0.01).is_err());
    }

    #[test]
    fn leftovers_are_rejected() {
        let UsageError(msg) = args("--sff 0.05").positionals().unwrap_err();
        assert!(msg.contains("--sff"), "{msg}");
        let UsageError(msg) = args("Q6").no_positionals().unwrap_err();
        assert!(msg.contains("Q6"), "{msg}");
        assert_eq!(args("").no_positionals(), Ok(()));
    }
}
