//! Flag parsing shared by the `repro` and `trace` binaries, so both read
//! flags one way: a missing or malformed value is one line on stderr and
//! exit status 2.

/// Prints `msg` as one line on stderr and exits with status 2.
pub fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Strips every `--<name> V` / `--<name>=V` from `args`, returning the last
/// value as `parse` reads it. Exits with a usage error on a missing or
/// malformed value — a typo silently falling back to the default would be
/// misleading.
pub fn take_flag<T>(
    args: &mut Vec<String>,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let long = format!("--{name}");
    let eq = format!("--{name}=");
    let mut parsed = None;
    while let Some(i) = args.iter().position(|a| *a == long || a.starts_with(&eq)) {
        let flag = args.remove(i);
        let value = match flag.strip_prefix(&eq) {
            Some(v) => v.to_string(),
            None if i < args.len() => args.remove(i),
            None => usage_error(format!("{long} expects a value")),
        };
        parsed = Some(parse(&value).unwrap_or_else(|e| usage_error(format!("{long}: {e}"))));
    }
    parsed
}

/// Parses a count of at least 1 (`--threads`, `--shards`).
pub fn positive(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expected a positive integer, got {value:?}")),
    }
}
