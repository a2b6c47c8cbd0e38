//! The one typed flag reader every `ic-prio` verb shares.
//!
//! [`Flags`] holds the arguments after the verb: value-less switches
//! are taken by name ([`Flags::switch`]), everything else is read as
//! `--flag value` pairs ([`Flags::pairs`]) whose [`Value`]s parse into
//! the type the flag needs. Every mistake is a [`CliError`] propagated
//! with `?` up to `main`, which owns the printing and the exit code.

use std::str::FromStr;

use ic_net::{FaultPlan, ServerConfig, WorkerConfig};

/// Why a command did not run. Both variants exit with code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation is malformed: print `error: <message>` (when
    /// there is one), then the usage text.
    Usage(Option<String>),
    /// The invocation was understood but cannot run (unreadable file,
    /// unparsable dag, bind failure): print `error: <message>` only.
    Fatal(String),
}

impl CliError {
    /// A usage error with an explanatory first line.
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(Some(msg.into()))
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Fatal(msg)
    }
}

/// The value of one `--flag value` pair, still text.
#[derive(Debug, Clone, Copy)]
pub struct Value<'a> {
    flag: &'a str,
    text: &'a str,
}

impl<'a> Value<'a> {
    /// The value as written.
    pub fn str(self) -> &'a str {
        self.text
    }

    /// The value as a `T` satisfying `ok`; otherwise the usage error
    /// `<flag> takes <what>`.
    pub fn parse_if<T: FromStr>(
        self,
        what: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, CliError> {
        match self.text.parse() {
            Ok(v) if ok(&v) => Ok(v),
            _ => Err(CliError::usage(format!("{} takes {what}", self.flag))),
        }
    }

    /// Any integer of type `T`.
    pub fn int<T: FromStr>(self) -> Result<T, CliError> {
        self.parse_if("an integer", |_| true)
    }

    /// An integer strictly above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(self) -> Result<T, CliError> {
        self.parse_if("a positive integer", |n| *n > T::default())
    }
}

/// The arguments after the verb.
#[derive(Debug, Clone)]
pub struct Flags<'a>(Vec<&'a str>);

impl<'a> Flags<'a> {
    /// Wrap the arguments that follow the verb.
    pub fn new(args: impl Iterator<Item = &'a str>) -> Flags<'a> {
        Flags(args.collect())
    }

    /// Remove the value-less switch `name` wherever it appears; was it
    /// there?
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| *a != name);
        self.0.len() != before
    }

    /// Remove and return the leading positional argument.
    pub fn positional(&mut self) -> Option<&'a str> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    /// Remove every `name value` pair whose name is in `names`, in
    /// argument order — for repeatable flags mixed in among
    /// positional arguments. A name without a value is a usage error.
    pub fn take_pairs(&mut self, names: &[&str]) -> Result<Vec<(&'a str, &'a str)>, CliError> {
        let mut taken = Vec::new();
        let mut args = std::mem::take(&mut self.0).into_iter();
        while let Some(arg) = args.next() {
            if names.contains(&arg) {
                taken.push((arg, args.next().ok_or(CliError::Usage(None))?));
            } else {
                self.0.push(arg);
            }
        }
        Ok(taken)
    }

    /// What is left, as written.
    pub fn rest(&self) -> &[&'a str] {
        &self.0
    }

    /// What is left, read as `--flag value` pairs. A trailing flag
    /// with no value is a usage error, reported when it is reached.
    pub fn pairs(&self) -> impl Iterator<Item = Result<(&'a str, Value<'a>), CliError>> + '_ {
        self.0.chunks(2).map(|pair| match *pair {
            [flag, text] => Ok((flag, Value { flag, text })),
            _ => Err(CliError::Usage(None)),
        })
    }
}

/// Apply one of `serve`'s network flags to `cfg`; `Ok(false)` means
/// the flag is not one of them. Defaults are whatever `cfg` held — the
/// caller starts from [`ServerConfig::default`], so the CLI cannot
/// drift from the library.
pub fn server_flag(cfg: &mut ServerConfig, flag: &str, v: Value<'_>) -> Result<bool, CliError> {
    match flag {
        "--lease-ms" => cfg.lease_ms = v.positive()?,
        "--expect" => cfg.expect_workers = v.int()?,
        "--batch" => cfg.batch = v.positive()?,
        "--steal-after" => cfg.steal_after_ms = Some(v.parse_if("milliseconds", |_| true)?),
        "--seed" => cfg.seed = v.int()?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Apply one of `work`'s flags to `cfg` (same contract as
/// [`server_flag`], over [`WorkerConfig::default`]).
pub fn worker_flag(cfg: &mut WorkerConfig, flag: &str, v: Value<'_>) -> Result<bool, CliError> {
    match flag {
        "--id" => cfg.id = v.str().to_string(),
        // The server's own rule for `hello.speed`; the wire cannot
        // carry an infinite one.
        "--speed" => {
            cfg.speed = v.parse_if("a positive finite number", |f: &f64| {
                f.is_finite() && *f > 0.0
            })?;
        }
        "--mean-ms" => cfg.mean_ms = v.int()?,
        "--batch" => cfg.batch = v.positive()?,
        "--retry-ms" => cfg.retry_ms = v.parse_if("positive milliseconds", |&ms| ms > 0)?,
        "--flaky" => {
            let p = v.parse_if("a probability in [0, 1]", |p| (0.0..=1.0).contains(p))?;
            cfg.fault = FaultPlan::Random(p);
        }
        "--die-after" => cfg.fault = FaultPlan::DieAfter(v.int()?),
        "--stall-after" => cfg.fault = FaultPlan::StallAfter(v.int()?),
        "--sever-after" => cfg.fault = FaultPlan::SeverAfter(v.int()?),
        "--seed" => cfg.seed = v.int()?,
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `args` (flag/value pairs) through `apply`, stopping at the
    /// first error; every flag must be one `apply` owns.
    fn read<C>(
        cfg: &mut C,
        args: &[&str],
        apply: fn(&mut C, &str, Value<'_>) -> Result<bool, CliError>,
    ) -> Result<(), CliError> {
        for pair in Flags::new(args.iter().copied()).pairs() {
            let (flag, v) = pair?;
            assert!(apply(cfg, flag, v)?, "{flag} is not a shared flag");
        }
        Ok(())
    }

    #[test]
    fn shared_flags_land_in_the_library_configs_per_side() {
        let mut cfg = ServerConfig::default();
        let args = "--lease-ms 250 --batch 4 --steal-after 75 --seed 9";
        let args: Vec<&str> = args.split(' ').collect();
        read(&mut cfg, &args, server_flag).unwrap();
        assert_eq!(cfg.lease_ms, 250);
        assert_eq!(cfg.batch, 4);
        assert_eq!(cfg.steal_after_ms, Some(75));
        assert_eq!(cfg.seed, 9);

        let mut w = WorkerConfig::default();
        read(&mut w, &["--batch", "8", "--retry-ms", "20"], worker_flag).unwrap();
        assert_eq!(w.batch, 8);
        assert_eq!(w.retry_ms, 20);
        // Untouched options keep the worker's own seed.
        assert_eq!(w.seed, WorkerConfig::default().seed);

        // Flags of the other side (and of the verb itself) are not
        // consumed: `--lease-ms` is a serve flag, not a work flag.
        let v = Value {
            flag: "--x",
            text: "2",
        };
        assert_eq!(server_flag(&mut cfg, "--listen", v), Ok(false));
        assert_eq!(worker_flag(&mut w, "--connect", v), Ok(false));
        assert_eq!(worker_flag(&mut w, "--lease-ms", v), Ok(false));
    }

    #[test]
    fn bad_values_are_usage_errors_naming_the_flag() {
        let mut cfg = ServerConfig::default();
        for (flag, value) in [("--lease-ms", "0"), ("--batch", "x")] {
            let err = read(&mut cfg, &[flag, value], server_flag).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(Some(m)) if m.starts_with(flag)),
                "{err:?}"
            );
        }
        let mut w = WorkerConfig::default();
        assert!(read(&mut w, &["--retry-ms", "0"], worker_flag).is_err());
        assert!(read(&mut w, &["--speed", "inf"], worker_flag).is_err());
        assert!(read(&mut w, &["--seed", "many"], worker_flag).is_err());
        // A flag that lost its value is a bare usage error.
        assert_eq!(
            read(&mut w, &["--seed"], worker_flag),
            Err(CliError::Usage(None))
        );
    }

    #[test]
    fn switches_and_repeatable_pairs_come_out_from_anywhere() {
        let mut flags = Flags::new("a --json --deny x b --deny y".split(' '));
        assert!(flags.switch("--json"));
        assert!(!flags.switch("--json"));
        let taken = flags.take_pairs(&["--deny"]).unwrap();
        assert_eq!(taken, [("--deny", "x"), ("--deny", "y")]);
        assert_eq!(flags.positional(), Some("a"));
        assert_eq!(flags.rest(), ["b"]);
        let mut dangling = Flags::new(["--deny"].into_iter());
        assert_eq!(dangling.take_pairs(&["--deny"]), Err(CliError::Usage(None)));
    }
}
