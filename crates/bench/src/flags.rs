//! The one command-line parser every `psi-bench` subcommand uses.
//!
//! Arguments are `--flag value` pairs plus the switches a subcommand
//! declares (`--smoke`). A subcommand reads each flag it knows with
//! [`Flags::get`] or [`Flags::switch`], then calls [`Flags::finish`], which
//! rejects every flag it did not read: a mistyped flag (`--rep 1` for
//! `--reps 1`) stops the run instead of running the default.

use std::str::FromStr;

/// The flags given to one subcommand, and which of them it has read.
pub struct Flags {
    /// `(flag, value)` in command-line order; `None` for a switch, or for a
    /// flag whose value is missing.
    given: Vec<(String, Option<String>)>,
    read: Vec<bool>,
}

impl Flags {
    /// Split `args` into flags. Names in `switches` take no value; every
    /// other flag takes the next argument, unless that is itself a flag.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(flag) = args.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?}"));
            }
            let takes_value = !switches.contains(&flag.as_str());
            let value = args.next_if(|v| takes_value && !v.starts_with("--"));
            given.push((flag.clone(), value.cloned()));
        }
        let read = vec![false; given.len()];
        Ok(Flags { given, read })
    }

    /// Mark every occurrence of `flag` read; the last one given wins.
    fn take(&mut self, flag: &str) -> Option<&Option<String>> {
        let mut last = None;
        for (i, (name, value)) in self.given.iter().enumerate() {
            if name == flag {
                self.read[i] = true;
                last = Some(value);
            }
        }
        last
    }

    /// The value of `flag` parsed as `T`, or `default` if it is not given.
    pub fn get<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.take(flag) {
            None => Ok(default),
            Some(None) => Err(format!("{flag} needs a value")),
            Some(Some(value)) => value
                .parse()
                .map_err(|_| format!("invalid value {value:?} for {flag}")),
        }
    }

    /// Whether the switch `flag` is given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// Reject any flag the subcommand did not read.
    pub fn finish(self) -> Result<(), String> {
        match self.read.iter().position(|read| !read) {
            Some(i) => Err(format!("unknown flag {}", self.given[i].0)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<(usize, String, bool), String> {
        let mut flags = Flags::parse(&args(list), &["--smoke"])?;
        let n = flags.get("--n", 7usize)?;
        let out = flags.get("--out", "a.json".to_string())?;
        let smoke = flags.switch("--smoke");
        flags.finish()?;
        Ok((n, out, smoke))
    }

    #[test]
    fn reads_values_switches_and_defaults() {
        assert_eq!(parse(&[]), Ok((7, "a.json".into(), false)));
        assert_eq!(
            parse(&["--smoke", "--n", "5", "--out", "b.json", "--n", "6"]),
            Ok((6, "b.json".into(), true))
        );
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert_eq!(
            parse(&["--n", "5", "--nn", "6"]),
            Err("unknown flag --nn".into())
        );
        assert_eq!(parse(&["--smok"]), Err("unknown flag --smok".into()));
        assert_eq!(parse(&["5"]), Err("unexpected argument \"5\"".into()));
    }

    #[test]
    fn rejects_a_flag_with_no_value() {
        assert_eq!(parse(&["--n"]), Err("--n needs a value".into()));
        assert_eq!(parse(&["--n", "--smoke"]), Err("--n needs a value".into()));
        assert_eq!(
            parse(&["--smoke", "1"]),
            Err("unexpected argument \"1\"".into())
        );
    }

    #[test]
    fn rejects_a_value_that_does_not_parse() {
        assert_eq!(
            parse(&["--n", "5k"]),
            Err("invalid value \"5k\" for --n".into())
        );
        assert_eq!(
            parse(&["--n", "-1"]),
            Err("invalid value \"-1\" for --n".into())
        );
    }
}
