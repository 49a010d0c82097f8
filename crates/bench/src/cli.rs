//! The one command line of the workspace's six binaries: `penny`,
//! `penny-eval`, `penny-prof`, `penny-herd`, `penny-lint` and
//! `penny-fuzz`.
//!
//! This module owns three decisions, and no binary keeps a copy:
//!
//! * **Flag grammar.** A flag that takes a value reads it as
//!   `--name value` or `--name=value`; a switch is a bare `--name` and
//!   rejects `--name=value`. An argument that does not start with `-`
//!   is positional.
//! * **Values.** Integers are decimal up to the maximum of their type
//!   (`--budget 18446744073709551615` is one `u64`); numbers must be
//!   finite; `--shard` is `I/N`
//!   ([`Shard::parse`](crate::conformance::Shard::parse)); workload
//!   lists name registry abbreviations; every scheme name goes through
//!   [`SchemeId::from_token`], so `Penny`, `penny`, `BoltGlobal`,
//!   `bolt-global` and `bolt_auto` mean the same in every binary.
//! * **Usage errors.** [`Prog::die`] prints `prog: message` to stderr
//!   and exits 2. A usage error is found before any work starts; exit 1
//!   stays each binary's "ran and found a failure".
//!
//! A binary reads its arguments in one loop:
//!
//! ```no_run
//! use penny_bench::cli::{self, Prog};
//!
//! const PROG: Prog = Prog("penny-example");
//! let (mut jobs, mut emit) = (1usize, false);
//! let mut args = PROG.args();
//! while let Some(flag) = args.next() {
//!     match flag.as_str() {
//!         "--jobs" => jobs = args.parse(cli::positive),
//!         "--emit" => emit = true,
//!         _ => args.unknown(),
//!     }
//! }
//! ```

use std::fmt::Display;
use std::str::FromStr;

use penny_workloads::Workload;

use crate::SchemeId;

/// A binary's name: the prefix of its usage errors.
#[derive(Debug, Clone, Copy)]
pub struct Prog(pub &'static str);

impl Prog {
    /// This process's command line, program name skipped.
    pub fn args(self) -> Args {
        Args::new(self, std::env::args().skip(1).collect())
    }

    /// The usage-error rule: prints `prog: msg` to stderr, exits 2.
    pub fn die(self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.0);
        std::process::exit(2)
    }
}

/// A pull parser over one command line. As an iterator it yields each
/// flag (`--name`, also for `--name=value`) or positional argument, and
/// dies if the previous one was a switch written `--name=value`.
#[derive(Debug)]
pub struct Args {
    prog: Prog,
    raw: std::vec::IntoIter<String>,
    /// The argument yielded last, `=value` split off.
    current: String,
    /// The value of a `--name=value` argument, until it is taken.
    inline: Option<String>,
}

impl Args {
    fn new(prog: Prog, raw: Vec<String>) -> Args {
        Args { prog, raw: raw.into_iter(), current: String::new(), inline: None }
    }

    /// The current flag's value: its `=value` part, else the next
    /// argument. Dies naming the flag if there is none.
    pub fn value(&mut self) -> String {
        match self.inline.take().or_else(|| self.raw.next()) {
            Some(v) => v,
            None => self.prog.die(format!("{} needs a value", self.current)),
        }
    }

    /// The current flag's value read by `parse`; dies naming the flag
    /// if `parse` rejects it.
    pub fn parse<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let v = self.value();
        parse(&v).unwrap_or_else(|e| self.prog.die(format!("{}: {e}", self.current)))
    }

    /// The current argument as a positional one; dies if it is a flag
    /// no match arm claimed.
    pub fn positional(&self) -> String {
        if is_flag(&self.current) {
            self.unknown();
        }
        self.current.clone()
    }

    /// Dies naming the current argument as one this binary does not
    /// take.
    pub fn unknown(&self) -> ! {
        if is_flag(&self.current) {
            self.prog.die(format!("unknown flag `{}`", self.current))
        }
        self.prog.die(format!("unexpected argument `{}`", self.current))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if let Some(v) = self.inline.take() {
            self.prog.die(format!("{} takes no value, got {v:?}", self.current));
        }
        let arg = self.raw.next()?;
        self.current = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => {
                self.inline = Some(value.to_string());
                name.to_string()
            }
            _ => arg,
        };
        Some(self.current.clone())
    }
}

fn is_flag(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-')
}

/// A decimal integer that fits `T`; the error names the value.
pub fn uint<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("expected a non-negative integer, got {v:?}"))
}

/// A decimal integer of at least 1 that fits `T`; the error names the
/// value.
pub fn positive<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("expected a positive integer, got {v:?}")),
    }
}

/// A finite number; the error names the value. `nan` and `inf` are
/// rejected: a gate compared against either never fires.
pub fn finite(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("expected a finite number, got {v:?}"))
}

/// One registry workload by abbreviation; the error names it.
pub fn workload(abbr: &str) -> Result<Workload, String> {
    penny_workloads::by_abbr(abbr).ok_or_else(|| format!("unknown workload {abbr:?}"))
}

/// Comma-separated registry abbreviations, trimmed, empty items
/// ignored; the error names the first unknown one.
pub fn workloads(list: &str) -> Result<Vec<Workload>, String> {
    list_items(list).map(workload).collect()
}

/// One scheme name, resolved by [`SchemeId::from_token`]; the error
/// names it and lists the tokens.
pub fn scheme(name: &str) -> Result<SchemeId, String> {
    SchemeId::from_token(name).ok_or_else(|| {
        let tokens: Vec<&str> = SchemeId::ALL.iter().map(|s| s.token()).collect();
        format!("unknown scheme {name:?} (tokens: {})", tokens.join(", "))
    })
}

/// Comma-separated scheme names, trimmed, empty items ignored; the
/// error names the first unknown one.
pub fn schemes(list: &str) -> Result<Vec<SchemeId>, String> {
    list_items(list).map(scheme).collect()
}

fn list_items(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::Shard;

    fn args(raw: &[&str]) -> Args {
        Args::new(Prog("test"), raw.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn both_value_spellings_read_the_same_flag_and_value() {
        for raw in [&["--budget", "7", "x"][..], &["--budget=7", "x"][..]] {
            let mut a = args(raw);
            assert_eq!(a.next().as_deref(), Some("--budget"));
            assert_eq!(a.parse(positive::<u64>), 7);
            assert_eq!(a.next().as_deref(), Some("x"));
            assert_eq!(a.positional(), "x");
            assert_eq!(a.next(), None);
        }
        // Only a `--` argument splits at `=`, and only at the first one.
        let mut a = args(&["--mint-spec=sparse;ops=6", "k=v"]);
        a.next();
        assert_eq!(a.value(), "sparse;ops=6");
        assert_eq!(a.next().as_deref(), Some("k=v"));
    }

    #[test]
    fn budgets_reach_u64_max() {
        assert_eq!(positive::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(positive::<u64>("18446744073709551616").is_err());
        assert_eq!(uint::<u64>("0"), Ok(0));
        assert_eq!(positive::<usize>("1"), Ok(1));
    }

    #[test]
    fn zero_negative_and_junk_are_not_positive() {
        for v in ["0", "-1", "", "two", "1.5", " 3"] {
            assert_eq!(
                positive::<u64>(v),
                Err(format!("expected a positive integer, got {v:?}"))
            );
        }
        assert!(uint::<u32>("-1").is_err());
    }

    #[test]
    fn numbers_must_be_finite() {
        assert_eq!(finite("0.5"), Ok(0.5));
        assert_eq!(finite("2"), Ok(2.0));
        for v in ["nan", "NaN", "inf", "-inf", "1e999", "x"] {
            assert_eq!(finite(v), Err(format!("expected a finite number, got {v:?}")));
        }
    }

    #[test]
    fn shards_parse_through_both_spellings() {
        for (raw, want) in [
            (&["--shard", "0/1"][..], Shard::full()),
            (&["--shard=7/8"][..], Shard { index: 7, count: 8 }),
            (
                &["--shard=4294967294/4294967295"][..],
                Shard { index: u32::MAX - 1, count: u32::MAX },
            ),
        ] {
            let mut a = args(raw);
            assert_eq!(a.next().as_deref(), Some("--shard"));
            assert_eq!(a.parse(Shard::parse), want);
            assert_eq!(a.next(), None);
        }
    }

    #[test]
    fn scheme_names_ignore_case_dashes_and_underscores() {
        for (names, id) in [
            (&["Baseline", "baseline", "BASELINE"][..], SchemeId::Baseline),
            (&["IGpu", "igpu", "i-gpu"][..], SchemeId::IGpu),
            (&["BoltGlobal", "bolt-global", "bolt_global"][..], SchemeId::BoltGlobal),
            (&["BoltAuto", "bolt-auto", "bolt_auto"][..], SchemeId::BoltAuto),
            (&["Penny", "penny"][..], SchemeId::Penny),
        ] {
            for name in names {
                assert_eq!(scheme(name), Ok(id), "{name}");
            }
        }
        for name in ["Bolt", "none", "", "Penny2", "bolt/global"] {
            assert!(scheme(name).is_err(), "{name}");
        }
    }

    #[test]
    fn list_flags_parse_and_name_unknown_items() {
        let ws = workloads(" MT,,BS ").expect("known workloads");
        assert_eq!(ws.iter().map(|w| w.abbr).collect::<Vec<_>>(), ["MT", "BS"]);
        assert_eq!(workloads("MT,NOPE").unwrap_err(), "unknown workload \"NOPE\"");
        assert_eq!(schemes("Penny, IGpu").unwrap(), [SchemeId::Penny, SchemeId::IGpu]);
        assert_eq!(
            schemes("Bolt").unwrap_err(),
            "unknown scheme \"Bolt\" (tokens: Baseline, IGpu, BoltGlobal, BoltAuto, Penny)"
        );
    }
}
