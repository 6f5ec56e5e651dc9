//! Minimal dependency-free argument parsing.

/// Parsed command line: positional arguments plus `--flag value` options.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    /// Split `argv` into positionals and `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(name) = arg.strip_prefix("--") {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                out.options.push((name.to_string(), value.clone()));
                i += 2;
            } else {
                out.positional.push(arg.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Positional argument `i`, or an error naming it.
    pub fn pos(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// Optional positional argument `i`.
    pub fn pos_opt(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Option value by name.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for a repeatable option, in order of appearance.
    pub fn opt_all(&self, name: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Option parsed as `u64`.
    pub fn opt_u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.opt(name)
            .map(|v| v.parse().map_err(|_| format!("--{name} must be a number")))
            .transpose()
    }

    /// The first option given whose name is not in `known`.
    pub fn unknown_option(&self, known: &[&str]) -> Option<&str> {
        self.options
            .iter()
            .map(|(name, _)| name.as_str())
            .find(|name| !known.contains(name))
    }

    /// Number of positional arguments.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.positional.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn mixes_positionals_and_options() {
        let a = Args::parse(&argv(&["events", "dir", "--u", "2000", "key"])).unwrap();
        assert_eq!(a.pos(0, "cmd").unwrap(), "events");
        assert_eq!(a.pos(1, "dir").unwrap(), "dir");
        assert_eq!(a.pos(2, "key").unwrap(), "key");
        assert_eq!(a.opt_u64("u").unwrap(), Some(2000));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn missing_option_value_is_error() {
        assert!(Args::parse(&argv(&["x", "--u"])).is_err());
    }

    #[test]
    fn missing_positional_reports_name() {
        let a = Args::parse(&argv(&["only"])).unwrap();
        let err = a.pos(1, "dir").unwrap_err();
        assert!(err.contains("dir"));
    }

    #[test]
    fn later_option_wins() {
        let a = Args::parse(&argv(&["--u", "1", "--u", "2"])).unwrap();
        assert_eq!(a.opt_u64("u").unwrap(), Some(2));
        assert_eq!(a.opt("absent"), None);
        assert!(a.pos_opt(0).is_none());
    }

    #[test]
    fn opt_all_collects_every_occurrence_in_order() {
        let a = Args::parse(&argv(&["--p", "a=1", "--q", "x", "--p", "b=2"])).unwrap();
        assert_eq!(a.opt_all("p"), vec!["a=1", "b=2"]);
        assert!(a.opt_all("absent").is_empty());
    }

    #[test]
    fn unknown_option_names_the_first_stranger() {
        let a = Args::parse(&argv(&["--u", "1", "--x", "2", "--y", "3"])).unwrap();
        assert_eq!(a.unknown_option(&["u", "y"]), Some("x"));
        assert_eq!(a.unknown_option(&["u", "x", "y"]), None);
    }

    #[test]
    fn bad_number_is_error() {
        let a = Args::parse(&argv(&["--u", "abc"])).unwrap();
        assert!(a.opt_u64("u").is_err());
    }
}
