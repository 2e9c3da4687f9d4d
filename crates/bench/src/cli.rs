//! Strict command-line parsing shared by the bench binaries.
//!
//! Every bin in this crate enforces the same contract: unknown flags,
//! missing values, malformed numbers, and out-of-range fractions are
//! loud usage errors (exit code 2), never silent defaults. `tracegen`,
//! `experiments`, `bench_throughput` and `fault_campaign` share these
//! helpers so the error texts — which CI greps for — cannot drift
//! apart.

use std::process::ExitCode;

/// A subcommand failure: bad invocation (exit 2) vs runtime error
/// (exit 1).
#[derive(Debug)]
pub enum CmdError {
    /// The invocation itself is wrong; the caller should print usage.
    Usage(String),
    /// The invocation was fine but the work failed.
    Runtime(String),
}

impl CmdError {
    /// Prints `error: …` to stderr and returns the conventional exit
    /// code (2 for usage, 1 for runtime) — the one-line adapter for
    /// bins whose `main` parses inline rather than through a
    /// `Result`-returning command function.
    pub fn exit(self) -> ExitCode {
        match self {
            CmdError::Usage(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
            CmdError::Runtime(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Takes the value following `flag`, or errors.
pub fn flag_value<'a>(
    iter: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a str, CmdError> {
    iter.next()
        .map(String::as_str)
        .ok_or_else(|| CmdError::Usage(format!("{flag} needs a value")))
}

/// Parses a fraction flag: must be a finite number in `[0, 1]`.
pub fn fraction_flag(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<f64, CmdError> {
    let raw = flag_value(iter, flag)?;
    let v: f64 = raw
        .parse()
        .map_err(|_| CmdError::Usage(format!("{flag}: `{raw}` is not a number")))?;
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(CmdError::Usage(format!(
            "{flag}: `{raw}` must be a finite fraction in [0, 1]"
        )));
    }
    Ok(v)
}

/// Parses an integer flag (floats like `5000.5` are rejected).
pub fn int_flag<T: std::str::FromStr>(
    iter: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CmdError> {
    let raw = flag_value(iter, flag)?;
    raw.parse()
        .map_err(|_| CmdError::Usage(format!("{flag}: `{raw}` is not a valid integer")))
}

/// Parses an integer flag that must be at least 1.
pub fn positive_int_flag<T>(
    iter: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CmdError>
where
    T: std::str::FromStr + PartialEq,
{
    let v: T = int_flag(iter, flag)?;
    if "0".parse::<T>().map(|zero| v == zero).unwrap_or(false) {
        return Err(CmdError::Usage(format!("{flag} must be at least 1")));
    }
    Ok(v)
}

/// Exactly one positional argument, no flags.
pub fn one_positional<'a>(args: &'a [String], what: &str) -> Result<&'a str, CmdError> {
    match args {
        [only] => Ok(only.as_str()),
        [] => Err(CmdError::Usage(format!("missing {what}"))),
        _ => Err(CmdError::Usage(format!("expected exactly one {what}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_requires_a_value() {
        let args = strings(&["0.5"]);
        let mut iter = args.iter();
        assert_eq!(flag_value(&mut iter, "--reads").unwrap(), "0.5");
        assert!(matches!(
            flag_value(&mut iter, "--reads"),
            Err(CmdError::Usage(_))
        ));
    }

    #[test]
    fn fractions_are_range_checked() {
        for bad in ["1.5", "-0.1", "NaN", "inf", "abc"] {
            let args = strings(&[bad]);
            let mut iter = args.iter();
            assert!(
                matches!(fraction_flag(&mut iter, "--reads"), Err(CmdError::Usage(_))),
                "{bad} must be rejected"
            );
        }
        let args = strings(&["0.75"]);
        let mut iter = args.iter();
        assert_eq!(fraction_flag(&mut iter, "--reads").unwrap(), 0.75);
    }

    #[test]
    fn integers_reject_floats_and_zero_where_required() {
        let args = strings(&["5000.5"]);
        let mut iter = args.iter();
        assert!(matches!(
            int_flag::<u64>(&mut iter, "--accesses"),
            Err(CmdError::Usage(_))
        ));
        let args = strings(&["0"]);
        let mut iter = args.iter();
        assert!(matches!(
            positive_int_flag::<u32>(&mut iter, "--chunk"),
            Err(CmdError::Usage(_))
        ));
        let args = strings(&["4"]);
        let mut iter = args.iter();
        assert_eq!(positive_int_flag::<usize>(&mut iter, "--jobs").unwrap(), 4);
    }

    #[test]
    fn one_positional_is_exact() {
        assert_eq!(
            one_positional(&strings(&["x.ctr"]), "file").unwrap(),
            "x.ctr"
        );
        assert!(one_positional(&strings(&[]), "file").is_err());
        assert!(one_positional(&strings(&["a", "b"]), "file").is_err());
    }
}
