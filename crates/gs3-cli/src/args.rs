//! Hand-rolled argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given twice.
    Duplicate(String),
    /// An option value failed to parse.
    BadValue {
        /// The offending key.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required option was not supplied.
    Missing(String),
    /// A value-taking option was the last token.
    MissingValue(String),
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "option --{key}: expected {expected}, got {value:?}")
            }
            ArgError::Missing(k) => write!(f, "required option --{k} is missing"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument {p:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Keys that are boolean flags (take no value).
const FLAG_KEYS: &[&str] = &[
    "map", "static", "mobile", "quiet", "help", "json", "reliable", "contended", "adaptive",
    "workload",
];

impl Args {
    /// Parses a token stream (`args[0]` must already be stripped).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on duplicates, stray positionals, or a trailing
    /// option with no value.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let key = key.to_string();
                if FLAG_KEYS.contains(&key.as_str()) {
                    if out.flags.contains(&key) {
                        return Err(ArgError::Duplicate(key));
                    }
                    out.flags.push(key);
                } else {
                    let value = it.next().ok_or_else(|| ArgError::MissingValue(key.clone()))?;
                    if out.options.insert(key.clone(), value).is_some() {
                        return Err(ArgError::Duplicate(key));
                    }
                }
            } else if let Some(rest) = tok.strip_prefix("-j") {
                // `-j N` / `-jN`: alias for `--threads N`.
                let value = if rest.is_empty() {
                    it.next().ok_or_else(|| ArgError::MissingValue("threads".to_string()))?
                } else {
                    rest.to_string()
                };
                if out.options.insert("threads".to_string(), value).is_some() {
                    return Err(ArgError::Duplicate("threads".to_string()));
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(out)
    }

    /// True when `--key` was given as a flag.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Force-sets a boolean flag (for subcommands that imply one, e.g.
    /// `gs3 dataplane` implying `--workload`). Idempotent.
    pub fn set_flag(&mut self, key: &str) {
        if !self.flag(key) {
            self.flags.push(key.to_string());
        }
    }

    /// The raw value of `--key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// The worker-thread count: `--threads N` or `-j N` / `-jN`,
    /// defaulting to the machine's available parallelism, never zero.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn threads(&self) -> Result<usize, ArgError> {
        Ok(self.num("threads", gs3_bench::runner::default_threads())?.max(1))
    }

    /// A parsed `x,y` point option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] on malformed coordinates,
    /// [`ArgError::Missing`] when absent.
    pub fn point(&self, key: &str) -> Result<gs3_geometry::Point, ArgError> {
        let raw = self.options.get(key).ok_or_else(|| ArgError::Missing(key.to_string()))?;
        let bad = || ArgError::BadValue {
            key: key.to_string(),
            value: raw.clone(),
            expected: "x,y",
        };
        let (x, y) = raw.split_once(',').ok_or_else(bad)?;
        Ok(gs3_geometry::Point::new(
            x.trim().parse().map_err(|_| bad())?,
            y.trim().parse().map_err(|_| bad())?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("run --nodes 500 --seed 7 --map").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.num("nodes", 0usize).unwrap(), 500);
        assert_eq!(a.num("seed", 0u64).unwrap(), 7);
        assert!(a.flag("map"));
        assert!(!a.flag("static"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("run").unwrap();
        assert_eq!(a.num("nodes", 42usize).unwrap(), 42);
    }

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(parse("run --seed 1 --seed 2"), Err(ArgError::Duplicate(_))));
        assert!(matches!(parse("run --map --map"), Err(ArgError::Duplicate(_))));
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parse("run --nodes banana").unwrap();
        assert!(matches!(a.num("nodes", 0usize), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn parses_points() {
        let a = parse("perturb --kill-disk 10,-20.5").unwrap();
        let p = a.point("kill-disk").unwrap();
        assert_eq!(p, gs3_geometry::Point::new(10.0, -20.5));
        assert!(matches!(a.point("missing"), Err(ArgError::Missing(_))));
        let b = parse("perturb --kill-disk nope").unwrap();
        assert!(matches!(b.point("kill-disk"), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn rejects_trailing_option_without_value() {
        for (line, key) in [
            ("chaos --plan", "plan"),
            ("chaos --json --out", "out"),
            ("chaos --seed 3 --timeline", "timeline"),
            ("chaos -j", "threads"),
        ] {
            assert_eq!(parse(line), Err(ArgError::MissingValue(key.to_string())), "{line}");
        }
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(matches!(parse("run extra"), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", ArgError::Missing("x".into())).contains("--x"));
    }
}
