//! The InfoGram configuration file — Table 1 of the paper.
//!
//! > "TTL: the lifetime in millisecond of each data generated by the
//! > specific key word; 0 specifies execution of the keyword every time it
//! > is requested. Keyword: the keyword that will be used in an RSL string
//! > to identify the mapping to a real program ... Executable Path: the
//! > full executable path and name with arguments."
//!
//! The core format is exactly the table: whitespace-separated
//! `TTL Keyword Command...` lines. Two optional directive forms extend it
//! for the features §6.3–6.4 describe but Table 1 does not show:
//!
//! ```text
//! # TTL  Keyword  Command
//! 60     Date     date -u
//! 80     Memory   /sbin/sysinfo.exe -mem
//! @degradation CPULoad exponential 2000
//! @delay       CPULoad 50
//! ```

use crate::quality::DegradationFn;
use std::time::Duration;

/// One keyword's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEntry {
    /// Cache lifetime; zero = execute on every request.
    pub ttl: Duration,
    /// The RSL keyword.
    pub keyword: String,
    /// Full command line to execute.
    pub command: String,
    /// Degradation function (defaults to binary over the TTL).
    pub degradation: DegradationFn,
    /// Minimum gap between consecutive real executions.
    pub delay: Duration,
}

/// A parsed configuration file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceConfig {
    /// Entries in file order.
    pub entries: Vec<ConfigEntry>,
}

/// A configuration parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl ServiceConfig {
    /// Parse the configuration format.
    pub fn parse(text: &str) -> Result<ServiceConfig, ConfigError> {
        let mut config = ServiceConfig::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |reason: String| ConfigError {
                line: i + 1,
                reason,
            };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(directive) = line.strip_prefix('@') {
                let mut parts = directive.split_whitespace();
                let kind = parts.next().unwrap_or_default();
                let keyword = parts
                    .next()
                    .ok_or_else(|| err("directive needs a keyword".to_string()))?;
                let entry = config
                    .entries
                    .iter_mut()
                    .find(|e| e.keyword == keyword)
                    .ok_or_else(|| err(format!("directive for unknown keyword '{keyword}'")))?;
                match kind {
                    "degradation" => {
                        let func = parts
                            .next()
                            .ok_or_else(|| err("missing degradation kind".to_string()))?;
                        let spec = parts.next().unwrap_or("");
                        entry.degradation = DegradationFn::parse(func, spec)
                            .ok_or_else(|| err(format!("bad degradation '{func} {spec}'")))?;
                    }
                    "delay" => {
                        let ms: u64 = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("bad delay milliseconds".to_string()))?;
                        entry.delay = Duration::from_millis(ms);
                    }
                    other => return Err(err(format!("unknown directive '@{other}'"))),
                }
                continue;
            }
            // TTL Keyword Command... (runs of whitespace are separators;
            // the command keeps its own internal spacing).
            let ttl_str = line.split_whitespace().next().unwrap_or_default();
            let ttl_ms: u64 = ttl_str
                .parse()
                .map_err(|_| err(format!("bad TTL '{ttl_str}'")))?;
            let after_ttl = line[ttl_str.len()..].trim_start();
            let keyword = after_ttl
                .split_whitespace()
                .next()
                .ok_or_else(|| err("missing keyword".to_string()))?
                .to_string();
            let command = after_ttl[keyword.len()..].trim().to_string();
            if command.is_empty() {
                return Err(err(format!("keyword '{keyword}' has no command")));
            }
            if config.entries.iter().any(|e| e.keyword == keyword) {
                return Err(err(format!("duplicate keyword '{keyword}'")));
            }
            let ttl = Duration::from_millis(ttl_ms);
            config.entries.push(ConfigEntry {
                ttl,
                keyword,
                command,
                // Default per §5.2 case one: binary accurate/inaccurate at
                // the TTL boundary (TTL 0 → degrade instantly).
                degradation: DegradationFn::Binary { lifetime: ttl },
                delay: Duration::ZERO,
            });
        }
        Ok(config)
    }

    /// The literal configuration of Table 1 in the paper.
    #[expect(clippy::expect_used, reason = "`table1_matches_paper` pins the text")]
    pub fn table1() -> ServiceConfig {
        ServiceConfig::parse(TABLE1_TEXT).expect("Table 1 config is valid")
    }

    /// Look up an entry by keyword.
    pub fn get(&self, keyword: &str) -> Option<&ConfigEntry> {
        self.entries.iter().find(|e| e.keyword == keyword)
    }
}

/// The exact rows of Table 1: "The InfoGram configuration file provides a
/// mapping between keywords and information providers".
pub const TABLE1_TEXT: &str = "\
# TTL  Keyword  Command
60   Date    date -u
80   Memory  /sbin/sysinfo.exe -mem
100  CPU     /sbin/sysinfo.exe -cpu
0    CPULoad /usr/local/bin/cpuload.exe
1000 list    /bin/ls /home/gregor
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = ServiceConfig::table1();
        assert_eq!(c.entries.len(), 5);
        let rows: Vec<(u128, &str, &str)> = c
            .entries
            .iter()
            .map(|e| (e.ttl.as_millis(), e.keyword.as_str(), e.command.as_str()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (60, "Date", "date -u"),
                (80, "Memory", "/sbin/sysinfo.exe -mem"),
                (100, "CPU", "/sbin/sysinfo.exe -cpu"),
                (0, "CPULoad", "/usr/local/bin/cpuload.exe"),
                (1000, "list", "/bin/ls /home/gregor"),
            ]
        );
    }

    #[test]
    fn directives_apply() {
        let c = ServiceConfig::parse(
            "100 CPULoad cpuload\n@degradation CPULoad exponential 2000\n@delay CPULoad 50\n",
        )
        .unwrap();
        let e = c.get("CPULoad").unwrap();
        assert_eq!(
            e.degradation,
            DegradationFn::Exponential {
                half_life: Duration::from_millis(2000)
            }
        );
        assert_eq!(e.delay, Duration::from_millis(50));
    }

    #[test]
    fn default_degradation_is_binary_over_ttl() {
        let c = ServiceConfig::parse("500 X cmd\n").unwrap();
        assert_eq!(
            c.get("X").unwrap().degradation,
            DegradationFn::Binary {
                lifetime: Duration::from_millis(500)
            }
        );
    }

    #[test]
    fn errors_with_line_numbers() {
        let cases = [
            ("abc Date date -u\n", 1, "bad TTL"),
            ("60\n", 1, "missing keyword"),
            ("60 Date\n", 1, "no command"),
            ("60 D d\n60 D d\n", 2, "duplicate"),
            ("60 D d\n@frob D x\n", 2, "unknown directive"),
            ("@delay D 10\n", 1, "unknown keyword"),
            ("60 D d\n@degradation D quartic 9\n", 2, "bad degradation"),
            ("60 D d\n@delay D soon\n", 2, "bad delay"),
        ];
        for (text, line, fragment) in cases {
            let e = ServiceConfig::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(
                e.reason.contains(fragment),
                "{text:?}: '{}' lacks '{fragment}'",
                e.reason
            );
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = ServiceConfig::parse("# heading\n\n  \n60 Date date -u\n").unwrap();
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn command_with_many_arguments_kept_whole() {
        let c = ServiceConfig::parse("10 X /bin/tool -a -b --flag value\n").unwrap();
        assert_eq!(c.get("X").unwrap().command, "/bin/tool -a -b --flag value");
    }
}
