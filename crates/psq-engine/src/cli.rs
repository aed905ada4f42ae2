//! Shared command-line parsing for the engine-backed binaries.
//!
//! `psq-engine` (one-shot batch) and `psq-serve` (streaming server) expose
//! the same engine knobs — worker threads and the result cache — so the
//! flag parsing lives here once. Each binary folds [`EngineFlags::accept`]
//! into its own argument loop and appends [`ENGINE_FLAGS_HELP`] to its
//! `--help` text, so the flags stay documented and behave identically in
//! both surfaces.

use crate::cache::DEFAULT_RESULT_CACHE_CAPACITY;
use crate::executor::EngineConfig;

/// Help text for the flags [`EngineFlags`] parses, one per line, aligned for
/// terminal display. Binaries append their own flags after this block.
pub const ENGINE_FLAGS_HELP: &str = "  \
--threads N                  worker threads (default: machine parallelism)
  --no-result-cache            disable the memoised result cache (repeated
                               jobs re-execute; honest cold benchmarking)
  --result-cache-capacity N    approximate bound on cached results before
                               second-chance eviction kicks in (default 65536)
  --trace[=stderr|FILE]        emit per-stage NDJSON trace events
                               ({\"type\":\"trace\",...}) to stderr or FILE;
                               the PSQ_TRACE environment variable (same
                               stderr|FILE values) enables tracing without
                               the flag — the flag wins when both are set";

/// Environment variable enabling the NDJSON trace stream without a flag
/// (`stderr` or a file path, like `--trace=`). `--trace` wins when both
/// are given; an empty value counts as unset.
pub const PSQ_TRACE_ENV: &str = "PSQ_TRACE";

/// Engine-construction flags shared by every engine-backed binary.
#[derive(Clone, Debug)]
pub struct EngineFlags {
    /// `--threads N`; `None` sizes the pool to the machine.
    pub threads: Option<usize>,
    /// `--no-result-cache` clears this.
    pub result_cache: bool,
    /// `--result-cache-capacity N`.
    pub result_cache_capacity: usize,
    /// `--trace[=stderr|FILE]`: where the NDJSON trace stream goes
    /// (`"stderr"` or a file path); `None` leaves tracing disabled.
    pub trace: Option<String>,
}

impl Default for EngineFlags {
    fn default() -> Self {
        Self {
            threads: None,
            result_cache: true,
            result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
            trace: None,
        }
    }
}

impl EngineFlags {
    /// Tries to consume `arg` (and its value, pulled from `args`). Returns
    /// `Ok(true)` when the flag was one of ours, `Ok(false)` when the caller
    /// should handle it, and `Err` for a recognised flag with a missing or
    /// malformed value.
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--threads" => {
                self.threads = Some(require_value(arg, args)?);
                Ok(true)
            }
            "--no-result-cache" => {
                self.result_cache = false;
                Ok(true)
            }
            "--result-cache-capacity" => {
                self.result_cache_capacity = require_value(arg, args)?;
                Ok(true)
            }
            "--trace" => {
                self.trace = Some("stderr".to_string());
                Ok(true)
            }
            _ => match arg.strip_prefix("--trace=") {
                Some("") => Err("--trace= needs a target (stderr or a file path)".to_string()),
                Some(target) => {
                    self.trace = Some(target.to_string());
                    Ok(true)
                }
                None => Ok(false),
            },
        }
    }

    /// Installs the NDJSON trace sink these flags ask for. Without
    /// `--trace`, the `PSQ_TRACE` environment variable (same
    /// `stderr`/`FILE` values) is consulted, so a supervisor — the
    /// front-tier router collecting its workers' streams — can switch
    /// tracing on in spawned processes without CLI plumbing. Precedence:
    /// the flag wins; an empty `PSQ_TRACE` counts as unset. Call once at
    /// binary start-up, before serving jobs.
    pub fn install_trace(&self) -> Result<(), String> {
        match &self.trace {
            Some(target) => psq_obs::trace::install_target(Some(target)),
            None => match std::env::var(PSQ_TRACE_ENV) {
                Ok(target) if !target.is_empty() => psq_obs::trace::install_target(Some(&target)),
                _ => Ok(()),
            },
        }
    }

    /// The [`EngineConfig`] these flags describe.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.threads,
            result_cache: self.result_cache,
            result_cache_capacity: self.result_cache_capacity,
        }
    }
}

/// Pulls and parses the value following a flag, with a flag-named error.
pub fn require_value<T: std::str::FromStr>(
    flag: &str,
    args: &mut dyn Iterator<Item = String>,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<EngineFlags, String> {
        let mut flags = EngineFlags::default();
        let mut args = tokens.iter().map(|s| s.to_string());
        while let Some(arg) = args.next() {
            if !flags.accept(&arg, &mut args)? {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn parses_every_shared_flag() {
        let flags = parse(&[
            "--threads",
            "3",
            "--no-result-cache",
            "--result-cache-capacity",
            "128",
        ])
        .expect("valid flags");
        assert_eq!(flags.threads, Some(3));
        assert!(!flags.result_cache);
        assert_eq!(flags.result_cache_capacity, 128);
        let config = flags.engine_config();
        assert_eq!(config.threads, Some(3));
        assert!(!config.result_cache);
        assert_eq!(config.result_cache_capacity, 128);
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "lots"]).is_err());
        assert!(parse(&["--result-cache-capacity", "-1"]).is_err());
    }

    #[test]
    fn parses_the_trace_flag_forms() {
        assert_eq!(parse(&[]).expect("no flags").trace, None);
        assert_eq!(
            parse(&["--trace"]).expect("bare form").trace,
            Some("stderr".to_string())
        );
        assert_eq!(
            parse(&["--trace=stderr"]).expect("explicit stderr").trace,
            Some("stderr".to_string())
        );
        assert_eq!(
            parse(&["--trace=/tmp/out.ndjson"])
                .expect("file form")
                .trace,
            Some("/tmp/out.ndjson".to_string())
        );
        assert!(parse(&["--trace="]).is_err(), "empty target rejected");
    }

    #[test]
    fn psq_trace_env_enables_tracing_and_the_flag_wins() {
        // Environment state is process-global, so the whole precedence
        // story lives in one test. Start from a clean slate.
        psq_obs::trace::disable();
        std::env::remove_var(PSQ_TRACE_ENV);

        // No flag, no env: tracing stays off.
        EngineFlags::default().install_trace().expect("no-op");
        assert!(!psq_obs::trace::enabled());

        // No flag, env set: the env target is installed.
        std::env::set_var(PSQ_TRACE_ENV, "stderr");
        EngineFlags::default().install_trace().expect("env target");
        assert!(psq_obs::trace::enabled());
        psq_obs::trace::disable();

        // Empty env counts as unset.
        std::env::set_var(PSQ_TRACE_ENV, "");
        EngineFlags::default().install_trace().expect("empty env");
        assert!(!psq_obs::trace::enabled());

        // Flag wins: with the env pointing at an unopenable path, the
        // flag's stderr target must install without ever consulting it.
        std::env::set_var(PSQ_TRACE_ENV, "/nonexistent-dir/x/trace.ndjson");
        let flags = parse(&["--trace"]).expect("flag");
        flags.install_trace().expect("flag beats env");
        assert!(psq_obs::trace::enabled());
        psq_obs::trace::disable();

        // The env alone would have failed on that path.
        assert!(EngineFlags::default().install_trace().is_err());
        std::env::remove_var(PSQ_TRACE_ENV);
    }

    #[test]
    fn leaves_unknown_flags_to_the_caller() {
        assert!(parse(&["--explain"]).is_err(), "not a shared flag");
        let mut flags = EngineFlags::default();
        let mut none = std::iter::empty::<String>();
        assert_eq!(flags.accept("--pretty", &mut none), Ok(false));
    }

    #[test]
    fn defaults_match_engine_config_defaults() {
        let config = EngineFlags::default().engine_config();
        let reference = EngineConfig::default();
        assert_eq!(config.threads, reference.threads);
        assert_eq!(config.result_cache, reference.result_cache);
        assert_eq!(
            config.result_cache_capacity,
            reference.result_cache_capacity
        );
    }

    #[test]
    fn help_text_documents_each_flag() {
        for flag in [
            "--threads",
            "--no-result-cache",
            "--result-cache-capacity",
            "--trace",
        ] {
            assert!(ENGINE_FLAGS_HELP.contains(flag), "help must cover {flag}");
        }
    }
}
