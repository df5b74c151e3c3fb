//! A small, dependency-free flag parser.
//!
//! The CLI needs `--flag value`, `--switch` and positional arguments —
//! nothing a full parser generator is worth a dependency for. Flags may
//! appear in any order; unknown flags are errors (typos should not
//! silently become defaults).

use std::collections::BTreeMap;

/// Parsed command-line arguments: positionals in order, flags by name.
#[derive(Debug, Default)]
pub(crate) struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug)]
pub(crate) struct ArgError(pub(crate) String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// The `--metrics-out <path>` flag every subcommand accepts: where to
/// write the pipeline metrics JSON (counters, gauges, histograms, run
/// manifest and `timing/spans`) after the run.
pub(crate) const METRICS_OUT: &str = "metrics-out";
/// The `--trace` switch every subcommand accepts: print the span trace
/// tree to stderr after the run.
pub(crate) const TRACE: &str = "trace";
/// The `--threads <n>` flag every subcommand accepts: pin the shared
/// worker pool's thread count (default: the host's core count).
pub(crate) const THREADS: &str = "threads";
/// The `--trace-out <path>` flag every subcommand accepts: write the span
/// tree as collapsed flamegraph stacks after the run, whatever the
/// path's extension.
pub(crate) const TRACE_OUT: &str = "trace-out";
/// The `--metrics-redacted` switch every subcommand accepts: write the
/// redacted metrics document (durations and execution-shape fields
/// zeroed) and collapsed stacks weighted by call count instead of self
/// time, so same-seed runs are byte-comparable.
pub(crate) const METRICS_REDACTED: &str = "metrics-redacted";

/// Observability flags excluded from the normalized argument list a run
/// manifest records: they route or shape the *observation* of a run, not
/// the computation, so two runs of the same experiment keep the same
/// manifest args wherever their metrics go. `--artifact-out` is also
/// excluded — the artifact cannot name its own path and stay portable.
const MANIFEST_EXCLUDED: &[&str] = &[
    METRICS_OUT,
    METRICS_REDACTED,
    TRACE,
    TRACE_OUT,
    THREADS,
    "artifact-out",
];

impl Args {
    /// Parses raw arguments with the global flags ([`METRICS_OUT`],
    /// [`METRICS_REDACTED`], [`TRACE`], [`TRACE_OUT`], [`THREADS`])
    /// appended to the accepted lists — every subcommand takes them —
    /// and at most `positionals` positional arguments.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`], and an [`ArgError`] naming the first
    /// positional past `positionals` (a stray word is a typo, not input
    /// to ignore).
    pub(crate) fn parse_with_observability(
        raw: impl IntoIterator<Item = String>,
        positionals: usize,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Self, ArgError> {
        let mut valued: Vec<&str> = valued.to_vec();
        valued.push(METRICS_OUT);
        valued.push(THREADS);
        valued.push(TRACE_OUT);
        let mut switches: Vec<&str> = switches.to_vec();
        switches.push(TRACE);
        switches.push(METRICS_REDACTED);
        let args = Self::parse(raw, &valued, &switches)?;
        match args.positionals.get(positionals) {
            Some(extra) => Err(ArgError(format!(
                "unexpected argument {extra:?}: the command takes {positionals} positional argument(s)"
            ))),
            None => Ok(args),
        }
    }

    /// Parses raw arguments. `valued` lists flags that take a value;
    /// `switches` lists boolean flags. Anything else starting with `--`
    /// is rejected.
    pub(crate) fn parse(
        raw: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                // Allow --flag=value as well as --flag value.
                let (name, inline) = match name.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_string())),
                    None => (name, None),
                };
                if valued.contains(&name) {
                    let value = match inline {
                        Some(v) => v,
                        None => iter
                            .next()
                            .ok_or_else(|| ArgError(format!("--{name} needs a value")))?,
                    };
                    out.flags.insert(name.to_string(), value);
                } else if switches.contains(&name) {
                    if inline.is_some() {
                        return Err(ArgError(format!("--{name} takes no value")));
                    }
                    out.switches.push(name.to_string());
                } else {
                    return Err(ArgError(format!("unknown flag --{name}")));
                }
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// Positional argument `i`, if present.
    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Raw string value of a flag.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a boolean switch was given.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The normalized argument list a [`RunManifest`] records:
    /// positionals in order, then `--flag=value` pairs sorted by flag
    /// name, then switches sorted by name — with the observability
    /// routing flags excluded. Two invocations that differ only in flag
    /// order or in where they send metrics normalize identically.
    ///
    /// [`RunManifest`]: tweetmob_obs::RunManifest
    pub(crate) fn normalized(&self) -> Vec<String> {
        let mut out = self.positionals.clone();
        out.extend(
            self.flags
                .iter()
                .filter(|(name, _)| !MANIFEST_EXCLUDED.contains(&name.as_str()))
                .map(|(n, v)| format!("--{n}={v}")),
        );
        let mut switches: Vec<&String> = self
            .switches
            .iter()
            .filter(|name| !MANIFEST_EXCLUDED.contains(&name.as_str()))
            .collect();
        switches.sort();
        switches.dedup();
        out.extend(switches.into_iter().map(|n| format!("--{n}")));
        out
    }

    /// Parsed value of a flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError`] when the value does not parse.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| ArgError(format!("--{name} {v:?}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], valued: &[&str], switches: &[&str]) -> Result<Args, ArgError> {
        Args::parse(args.iter().map(|s| s.to_string()), valued, switches)
    }

    #[test]
    fn positionals_and_flags_mix() {
        let a = parse(
            &["generate", "--users", "500", "out.jsonl", "--verbose"],
            &["users"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("generate"));
        assert_eq!(a.positional(1), Some("out.jsonl"));
        assert_eq!(a.positional(2), None);
        assert_eq!(a.get("users"), Some("500"));
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn equals_syntax_supported() {
        let a = parse(&["--users=42"], &["users"], &[]).unwrap();
        assert_eq!(a.get_parsed("users", 0u32).unwrap(), 42);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"], &["users"], &[]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--users"], &["users"], &[]).is_err());
    }

    #[test]
    fn switch_with_value_rejected() {
        assert!(parse(&["--verbose=yes"], &[], &["verbose"]).is_err());
    }

    #[test]
    fn bad_parse_reports_flag() {
        let a = parse(&["--users", "many"], &["users"], &[]).unwrap();
        let err = a.get_parsed("users", 0u32).unwrap_err();
        assert!(err.0.contains("users"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&[], &["users"], &[]).unwrap();
        assert_eq!(a.get_parsed("users", 7u32).unwrap(), 7);
    }

    #[test]
    fn observability_flags_accepted_on_any_command() {
        let raw = ["out.jsonl", "--metrics-out", "m.json", "--trace"];
        let a =
            Args::parse_with_observability(raw.iter().map(|s| s.to_string()), 1, &["users"], &[])
                .unwrap();
        assert_eq!(a.get(METRICS_OUT), Some("m.json"));
        assert!(a.has(TRACE));
        assert_eq!(a.positional(0), Some("out.jsonl"));
        // Plain parse without the helper still rejects them.
        assert!(parse(&["--trace"], &["users"], &[]).is_err());
        assert!(parse(&["--trace-out", "t.json"], &["users"], &[]).is_err());
        assert!(parse(&["--metrics-redacted"], &["users"], &[]).is_err());
    }

    #[test]
    fn new_observability_flags_parse() {
        let raw = ["out.jsonl", "--trace-out", "t.folded", "--metrics-redacted"];
        let a =
            Args::parse_with_observability(raw.iter().map(|s| s.to_string()), 1, &[], &[]).unwrap();
        assert_eq!(a.get(TRACE_OUT), Some("t.folded"));
        assert!(a.has(METRICS_REDACTED));
    }

    #[test]
    fn normalized_args_sort_flags_and_drop_observability_routing() {
        let raw = [
            "data.jsonl",
            "--scale",
            "national",
            "--census",
            "--metrics-out",
            "m.json",
            "--trace",
            "--trace-out",
            "t.json",
            "--threads",
            "8",
            "--metrics-redacted",
            "--artifact-out",
            "m.tma",
            "--radius",
            "25",
        ];
        let a = Args::parse_with_observability(
            raw.iter().map(|s| s.to_string()),
            1,
            &["scale", "radius", "artifact-out"],
            &["census"],
        )
        .unwrap();
        assert_eq!(
            a.normalized(),
            vec!["data.jsonl", "--radius=25", "--scale=national", "--census"]
        );
    }

    #[test]
    fn normalized_args_are_flag_order_invariant() {
        let a = parse(
            &["d.jsonl", "--scale", "state", "--census"],
            &["scale"],
            &["census"],
        )
        .unwrap();
        let b = parse(
            &["--census", "--scale", "state", "d.jsonl"],
            &["scale"],
            &["census"],
        )
        .unwrap();
        assert_eq!(a.normalized(), b.normalized());
    }
}
