//! Command-line parsing shared by the `sweep`, `sweep-worker` and
//! `trace-report` bins: a bad command line is a one-line usage error on
//! stderr with exit code 2, never a panic.

use std::str::FromStr;

/// Prints `message` on stderr and exits with code 2, without a
/// backtrace.
pub fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `value`, the argument that followed `flag`, as a `T`. A
/// missing or unparsable value is a [`usage`] error naming `flag` and
/// what it expected (`expected`, e.g. "a thread count").
pub fn flag_value<T: FromStr>(flag: &str, value: Option<&str>, expected: &str) -> T {
    let Some(value) = value else {
        usage(&format!("{flag} needs {expected}"))
    };
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: `{value}` is not {expected}")))
}
