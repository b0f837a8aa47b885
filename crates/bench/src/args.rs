//! Command-line parsing shared by the harness binaries: each binary
//! declares its flags in two tables, and anything else that starts with
//! `--` is refused rather than ignored.

/// A command line parsed once against its flag tables: each `--flag` is a
/// switch or takes the next argument as its value, and anything else is a
/// name. The tables are the one place a flag is declared — parsing refuses
/// a flag they do not list (or a value flag with no value), and
/// [`Args::flag`]/[`Args::opt`] read only what was parsed.
pub struct Args<'a> {
    switches: &'static [&'static str],
    value_flags: &'static [&'static str],
    given: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    /// The arguments that are not flags or flag values, in order.
    pub names: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Parses `args` against the declared `switches` and `value_flags`.
    pub fn parse(
        args: &'a [String],
        switches: &'static [&'static str],
        value_flags: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut parsed =
            Args { switches, value_flags, given: vec![], values: vec![], names: vec![] };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if value_flags.contains(&a) {
                let value = it.next().ok_or_else(|| format!("{a} requires a value"))?;
                parsed.values.push((a, value));
            } else if switches.contains(&a) {
                parsed.given.push(a);
            } else if a.starts_with("--") {
                return Err(format!("unknown flag `{a}`"));
            } else {
                parsed.names.push(a);
            }
        }
        Ok(parsed)
    }

    /// Whether the switch `f` was given.
    pub fn flag(&self, f: &str) -> bool {
        assert!(self.switches.contains(&f), "`{f}` is not a declared switch");
        self.given.contains(&f)
    }

    /// The value of the first `f` given.
    pub fn opt(&self, f: &str) -> Option<&'a str> {
        assert!(self.value_flags.contains(&f), "`{f}` is not a declared value flag");
        self.values.iter().find(|&&(k, _)| k == f).map(|&(_, v)| v)
    }

    /// Whether any of `flags` (switches or value flags) was given.
    pub fn any(&self, flags: &[&str]) -> bool {
        flags.iter().any(|f| self.given.contains(f) || self.values.iter().any(|(k, _)| k == f))
    }
}
