//! Hand-rolled argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// The options of one command line: `--key value` and `--flag`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
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
    /// An option the command does not read, as spelled.
    Unknown(String),
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
            ArgError::Unknown(o) => write!(f, "unknown option {o}"),
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
    /// Parses the tokens after the command name. `keys` are the options
    /// the command reads, flags and value-taking ones alike; `-j` spells
    /// `--threads`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an option outside `keys`, duplicates, stray
    /// positionals, or a trailing option with no value.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I, keys: &[&[&str]]) -> Result<Args, ArgError> {
        let reads = |key: &str| keys.iter().any(|group| group.contains(&key));
        let mut out = Args::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if !reads(key) {
                    return Err(ArgError::Unknown(tok));
                }
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
            } else if let Some(rest) = tok.strip_prefix("-j").filter(|_| reads("threads")) {
                // `-j N` / `-jN`: alias for `--threads N`.
                let value = if rest.is_empty() {
                    it.next().ok_or_else(|| ArgError::MissingValue("threads".to_string()))?
                } else {
                    rest.to_string()
                };
                if out.options.insert("threads".to_string(), value).is_some() {
                    return Err(ArgError::Duplicate("threads".to_string()));
                }
            } else if tok.starts_with('-') {
                return Err(ArgError::Unknown(tok));
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

    /// The raw value of `--key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        let parse = |v: &String| {
            v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            })
        };
        self.options.get(key).map(parse).transpose()
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.parsed(key)?.unwrap_or(default))
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

    /// The keys these tests' command reads.
    const KEYS: &[&[&str]] =
        &[&["nodes", "seed", "map", "static", "kill-disk", "plan", "json", "out", "timeline", "threads"]];

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from), KEYS)
    }

    #[test]
    fn parses_options_and_flags() {
        let a = parse("--nodes 500 --seed 7 --map").unwrap();
        assert_eq!(a.num("nodes", 0usize).unwrap(), 500);
        assert_eq!(a.num("seed", 0u64).unwrap(), 7);
        assert!(a.flag("map"));
        assert!(!a.flag("static"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("").unwrap();
        assert_eq!(a.num("nodes", 42usize).unwrap(), 42);
        assert_eq!(a.parsed::<f64>("seed").unwrap(), None);
    }

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(parse("--seed 1 --seed 2"), Err(ArgError::Duplicate(_))));
        assert!(matches!(parse("--map --map"), Err(ArgError::Duplicate(_))));
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parse("--nodes banana").unwrap();
        assert!(matches!(a.num("nodes", 0usize), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn parses_points() {
        let a = parse("--kill-disk 10,-20.5").unwrap();
        let p = a.point("kill-disk").unwrap();
        assert_eq!(p, gs3_geometry::Point::new(10.0, -20.5));
        assert!(matches!(a.point("missing"), Err(ArgError::Missing(_))));
        let b = parse("--kill-disk nope").unwrap();
        assert!(matches!(b.point("kill-disk"), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn rejects_trailing_option_without_value() {
        for (line, key) in
            [("--plan", "plan"), ("--json --out", "out"), ("--seed 3 --timeline", "timeline"), ("-j", "threads")]
        {
            assert_eq!(parse(line), Err(ArgError::MissingValue(key.to_string())), "{line}");
        }
    }

    /// An option the command does not read is refused as spelled, before
    /// it can swallow the next token as its value.
    #[test]
    fn rejects_options_the_command_does_not_read() {
        for (line, spelled) in [("--nodse 300 --seed 1", "--nodse"), ("--qiet", "--qiet"), ("--seed 1 -x", "-x")] {
            assert_eq!(parse(line), Err(ArgError::Unknown(spelled.to_string())), "{line}");
        }
        let no_threads: &[&[&str]] = &[&["seed"]];
        let err = Args::parse(["-j2".to_string()], no_threads);
        assert_eq!(err, Err(ArgError::Unknown("-j2".to_string())));
        assert_eq!(ArgError::Unknown("--qiet".into()).to_string(), "unknown option --qiet");
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(matches!(parse("extra"), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", ArgError::Missing("x".into())).contains("--x"));
    }
}
