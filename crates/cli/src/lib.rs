//! # medmaker-cli — a command-line mediator
//!
//! Load an MSL specification plus OEM / CSV sources, then run MSL queries
//! from the command line or an interactive session:
//!
//! ```text
//! medmaker --name med --spec med.msl \
//!          --oem whois=whois.oem \
//!          --csv cs=employee.csv --csv cs=student.csv \
//!          "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med"
//! ```
//!
//! With no query argument, an interactive session starts: each line is a
//! query; `.explain <q>`, `.spec`, `.sources`, `.help`, `.quit` are
//! commands. Repeating `--csv NAME=file` with the same NAME adds tables to
//! one relational source (one catalog per source name).
//!
//! A first argument of `check`, `explain`, `serve`, `cache` or `invalidate`
//! names another [`Command`]; `medmaker explain [flags] QUERY` prints the
//! plan instead of the answer. Every flag is one row of a table that says
//! which commands read it, and a flag the command does not read is refused
//! (`FLAG does not apply to COMMAND`, exit 2) rather than ignored.

#![warn(missing_docs)]

use medmaker::planner::PlannerOptions;
use medmaker::{Mediator, MediatorOptions};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use wrappers::{RelationalWrapper, SemiStructuredWrapper, Wrapper};

/// Parsed command line: the command, and the values its flags set.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// What to run; the first argument names it (default: [`Command::Session`]).
    pub command: Command,
    /// Mediator name (`--name`, default `med`).
    pub name: String,
    /// Path to the MSL specification (`--spec`, required).
    pub spec_path: Option<PathBuf>,
    /// Semi-structured sources: `--oem NAME=FILE`.
    pub oem_sources: Vec<(String, PathBuf)>,
    /// Relational sources: `--csv NAME=FILE` (repeatable per NAME).
    pub csv_sources: Vec<(String, PathBuf)>,
    /// Use the paper's minimal unification presentation (`--minimal`).
    pub minimal: bool,
    /// Disable duplicate elimination (`--no-dedup`).
    pub no_dedup: bool,
    /// Treat QUERY (and session lines) as LOREL instead of MSL (`--lorel`).
    pub lorel: bool,
    /// One-shot query; absent = interactive session.
    pub query: Option<String>,
    /// Emit diagnostics as JSON (`--json`).
    pub json: bool,
    /// EXPLAIN ANALYZE: execute and annotate with observed metrics
    /// (`--analyze`).
    pub analyze: bool,
    /// Write the QueryTrace as JSON to this path (`--trace-json PATH`;
    /// implies `--analyze`).
    pub trace_json: Option<PathBuf>,
    /// Retry each failing source call up to N more times (`--retries N`).
    pub retries: Option<usize>,
    /// Per-source deadline in milliseconds (`--source-deadline-ms MS`).
    pub source_deadline_ms: Option<u64>,
    /// Degrade instead of failing when a source is down (`--partial`).
    pub partial: bool,
    /// Enable the source-answer cache (`--cache`).
    pub cache: bool,
    /// Cache capacity in entries per source (`--cache-capacity N`).
    pub cache_capacity: Option<usize>,
    /// Cache entry time-to-live in milliseconds (`--cache-ttl-ms MS`).
    pub cache_ttl_ms: Option<u64>,
    /// Serve cached answers even while the source is down
    /// (`--cache-stale-ok`).
    pub cache_stale_ok: bool,
    /// Directory of the persistent warm cache tier (`--cache-dir DIR`;
    /// implies `--cache`). Cached answers written here survive restarts.
    pub cache_dir: Option<PathBuf>,
    /// Warm-tier byte budget (`--cache-warm-bytes N`, default 64 MiB);
    /// compaction drops the lowest-value entries past it.
    pub cache_warm_bytes: Option<u64>,
    /// Source whose cached answers the delta invalidates (`--source`).
    pub source: Option<String>,
    /// Labels scoping the delta (`--label L`, repeatable).
    pub labels: Vec<String>,
    /// Canonical keys scoping the delta (`--key K`, repeatable).
    pub keys: Vec<String>,
    /// Rows per batch flowing between operators (`--batch-size N`).
    pub batch_size: Option<usize>,
    /// Bind or connect address (`--addr HOST:PORT`, default
    /// `127.0.0.1:7070`; port 0 picks a free port for `serve`).
    pub addr: Option<String>,
    /// Concurrent query executions in serve mode (`--workers N`).
    pub workers: Option<usize>,
    /// Admission queue length in serve mode (`--queue N`).
    pub queue: Option<usize>,
}

/// What a command line runs. Each command reads only the flags whose
/// `FLAGS` row names it; any other flag is refused.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// No subcommand: answer QUERY, or run the interactive session.
    #[default]
    Session,
    /// `medmaker check SPEC`: every static pass over the specification.
    Check,
    /// `medmaker explain ... QUERY`: the expansion, plan and a traced run,
    /// or the EXPLAIN ANALYZE report with `--analyze`.
    Explain,
    /// `medmaker serve ...`: the resident mediator daemon.
    Serve,
    /// `medmaker cache stats|clear|compact --cache-dir DIR`.
    Cache(CacheCmd),
    /// `medmaker invalidate --source NAME ...`: push a source delta to a
    /// running daemon.
    Invalidate,
    /// `--help` / `-h`: print [`USAGE`].
    Help,
}

/// The `medmaker cache` maintenance actions (offline: they open the
/// warm-tier directory directly, no daemon involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCmd {
    /// Print warm-tier statistics as JSON.
    Stats,
    /// Delete every warm segment.
    Clear,
    /// Rewrite live entries in value order, dropping the lowest-value
    /// ones past the byte budget.
    Compact,
}

// A flag's command set is a union of these bits, one per command.
const SESSION: u8 = 1;
const CHECK: u8 = 1 << 1;
const EXPLAIN: u8 = 1 << 2;
const SERVE: u8 = 1 << 3;
const CACHE: u8 = 1 << 4;
const INVALIDATE: u8 = 1 << 5;
/// The commands that build a mediator ([`build_mediator`]).
const MEDIATOR: u8 = SESSION | EXPLAIN | SERVE;

impl Command {
    fn bit(self) -> u8 {
        match self {
            Command::Session => SESSION,
            Command::Check => CHECK,
            Command::Explain => EXPLAIN,
            Command::Serve => SERVE,
            Command::Cache(_) => CACHE,
            Command::Invalidate => INVALIDATE,
            Command::Help => 0,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Command::Session => "a query or session",
            Command::Check => "check",
            Command::Explain => "explain",
            Command::Serve => "serve",
            Command::Cache(_) => "cache",
            Command::Invalidate => "invalidate",
            Command::Help => "--help",
        }
    }
}

/// One row of `FLAGS`: the flag; what its argument is called in
/// [`USAGE`] (`None` for a switch); the commands that read it; and a setter
/// that stores the argument (`""` for a switch), whose error the parser
/// completes with the flag's name.
struct Flag(
    &'static str,
    Option<&'static str>,
    u8,
    fn(&mut Config, &str) -> Result<(), String>,
);

/// Every flag, with the commands that read it. [`USAGE`] documents exactly
/// these (a test holds the two together).
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--spec", Some("FILE"), MEDIATOR | CHECK, |c, v| { c.spec_path = Some(v.into()); Ok(()) }),
    Flag("--name", Some("NAME"), MEDIATOR | CHECK, |c, v| { c.name = v.into(); Ok(()) }),
    Flag("--oem", Some("NAME=FILE"), MEDIATOR | CHECK, |c, v| { c.oem_sources.push(named(v)?); Ok(()) }),
    Flag("--csv", Some("NAME=FILE"), MEDIATOR | CHECK, |c, v| { c.csv_sources.push(named(v)?); Ok(()) }),
    Flag("--minimal", None, MEDIATOR, |c, _| { c.minimal = true; Ok(()) }),
    Flag("--no-dedup", None, MEDIATOR, |c, _| { c.no_dedup = true; Ok(()) }),
    Flag("--lorel", None, SESSION | EXPLAIN, |c, _| { c.lorel = true; Ok(()) }),
    Flag("--json", None, CHECK, |c, _| { c.json = true; Ok(()) }),
    Flag("--analyze", None, EXPLAIN, |c, _| { c.analyze = true; Ok(()) }),
    Flag("--trace-json", Some("PATH"), EXPLAIN, |c, v| { c.trace_json = Some(v.into()); c.analyze = true; Ok(()) }),
    Flag("--retries", Some("N"), MEDIATOR, |c, v| { c.retries = Some(number(v, 0)?); Ok(()) }),
    Flag("--source-deadline-ms", Some("MS"), MEDIATOR, |c, v| { c.source_deadline_ms = Some(number(v, 0)?); Ok(()) }),
    Flag("--partial", None, MEDIATOR, |c, _| { c.partial = true; Ok(()) }),
    Flag("--cache", None, MEDIATOR, |c, _| { c.cache = true; Ok(()) }),
    Flag("--cache-capacity", Some("N"), MEDIATOR, |c, v| { c.cache_capacity = Some(number(v, 0)?); Ok(()) }),
    Flag("--cache-ttl-ms", Some("MS"), MEDIATOR, |c, v| { c.cache_ttl_ms = Some(number(v, 0)?); Ok(()) }),
    Flag("--cache-stale-ok", None, MEDIATOR, |c, _| { c.cache_stale_ok = true; Ok(()) }),
    // Persistence without caching makes no sense: the flag implies --cache.
    Flag("--cache-dir", Some("DIR"), MEDIATOR | CACHE, |c, v| { c.cache_dir = Some(v.into()); c.cache = true; Ok(()) }),
    Flag("--cache-warm-bytes", Some("N"), MEDIATOR | CACHE, |c, v| { c.cache_warm_bytes = Some(number(v, 1)?); Ok(()) }),
    Flag("--batch-size", Some("N"), MEDIATOR, |c, v| { c.batch_size = Some(number(v, 1)?); Ok(()) }),
    Flag("--addr", Some("HOST:PORT"), SERVE | INVALIDATE, |c, v| { c.addr = Some(v.into()); Ok(()) }),
    Flag("--workers", Some("N"), SERVE, |c, v| { c.workers = Some(number(v, 1)?); Ok(()) }),
    Flag("--queue", Some("N"), SERVE, |c, v| { c.queue = Some(number(v, 0)?); Ok(()) }),
    Flag("--source", Some("NAME"), INVALIDATE, |c, v| { c.source = Some(v.into()); Ok(()) }),
    Flag("--label", Some("L"), INVALIDATE, |c, v| { c.labels.push(v.into()); Ok(()) }),
    Flag("--key", Some("K"), INVALIDATE, |c, v| { c.keys.push(v.into()); Ok(()) }),
];

/// Usage text.
pub const USAGE: &str = "\
usage: medmaker --spec FILE [--name NAME] [--oem NAME=FILE]... [--csv NAME=FILE]...
                [--minimal] [--no-dedup] [--lorel]
                [--retries N] [--source-deadline-ms MS] [--partial]
                [--cache] [--cache-capacity N] [--cache-ttl-ms MS]
                [--cache-stale-ok] [--cache-dir DIR] [--cache-warm-bytes N]
                [--batch-size N] [QUERY]
       medmaker check SPEC [--json] [--name NAME] [--oem NAME=FILE]... [--csv NAME=FILE]...
       medmaker explain --spec FILE [--analyze] [--trace-json PATH] [source/option flags] QUERY
       medmaker serve --spec FILE [--addr HOST:PORT] [--workers N] [--queue N]
                [source/option flags]
       medmaker cache stats|clear|compact --cache-dir DIR [--cache-warm-bytes N]
       medmaker invalidate --source NAME [--label L]... [--key K]...
                [--addr HOST:PORT]

  --spec FILE       MSL mediator specification
  --name NAME       mediator name (default: med)
  --oem NAME=FILE   semi-structured source from an OEM text file
  --csv NAME=FILE   relational source table from a CSV file
                    (header: col:type,...; repeat NAME to add tables)
  --minimal         paper-style minimal unifier enumeration
  --no-dedup        disable MSL duplicate elimination
  --lorel           QUERY/session lines are LOREL (select/from/where), not MSL
  --analyze         (explain mode) EXPLAIN ANALYZE: annotate the executed
                    plan with observed rows, estimate drift and timings
  --trace-json PATH (explain mode) write the QueryTrace as JSON to PATH
  --retries N       retry a failing source call up to N more times
                    (exponential backoff; default: 0, fail on first error)
  --source-deadline-ms MS
                    discard any source answer that took longer than MS
                    milliseconds (counts as a source failure)
  --partial         when a source stays down, drop only the rule chains
                    that need it and return the rest (annotated PARTIAL)
                    instead of failing the whole query
  --cache           cache source answers and reuse them across queries
                    (exact-match and containment-aware; default: off)
  --cache-capacity N
                    keep at most N cached answers per source (default: 64)
  --cache-ttl-ms MS expire cached answers after MS milliseconds
  --cache-stale-ok  keep serving cached answers for a source that is
                    currently failing (default: refetch and degrade)
  --cache-dir DIR   persist cached answers to DIR (the warm tier) so
                    they survive restarts; implies --cache
  --cache-warm-bytes N
                    warm-tier byte budget (default: 64 MiB); compaction
                    drops the lowest-value entries past it
  --batch-size N    rows per batch flowing between operators; bounds
                    what each operator holds at once (default: 1024)
  QUERY             a query; omit for an interactive session

check mode runs every static pass over SPEC, the same passes a mediator
runs when it is built: the lints (E0xx/W1xx), the capability checks
against the registered sources (--oem/--csv; E202/W201), and the
whole-spec dataflow analysis (specflow): type inference over the view
dependency graph against the sources' schema summaries, dead-view
liveness, and per-view answerability matrices derived from the sources'
capabilities (type-mismatched joins E301, unanswerable views E302,
unknown labels W301, dead views W302, rest conditions asking for a second
child a source holds at most one of W303). It prints every finding followed by
the inferred answerability of each view, and exits 0 (clean), 1
(warnings) or 2 (errors / unreadable spec). --json prints one object with
\"diagnostics\" and \"views\" arrays.

serve mode keeps one mediator resident and answers queries concurrently
over TCP — hand-rolled HTTP/1.1 (POST /query with a JSON body,
GET /metrics, GET /healthz) and a newline-delimited line protocol share
the one port (the first line of each connection is sniffed). --addr binds
HOST:PORT (default 127.0.0.1:7070; port 0 picks a free port), --workers
bounds concurrent query executions (default 4), --queue bounds requests
waiting for a worker (default 64); requests beyond workers+queue are shed
with 503/BUSY. SIGINT/SIGTERM shut down gracefully, draining in-flight
queries. Wire formats: DESIGN.md §11; operations: docs/OPERATIONS.md.

cache mode maintains a warm-tier directory offline (no daemon): stats
prints entry/byte/segment counts as JSON, clear deletes every segment,
compact rewrites live entries in value order dropping the lowest-value
ones past the --cache-warm-bytes budget.

invalidate mode POSTs a source delta to a running daemon's /invalidate
endpoint (default --addr 127.0.0.1:7070): unscoped drops every cached
answer for --source; --label/--key scope the drop to answers whose
label footprint or canonical key matches.

explain mode prints the view expansion, the physical datamerge plan and a
traced run of QUERY. With --analyze the run is rendered EXPLAIN
ANALYZE-style: every node annotated with observed rows-in/rows-out next to
the optimizer's estimate (drift), source round-trips and per-node timing.
--trace-json writes the raw QueryTrace as JSON to PATH (implies --analyze).
";

/// Parse command-line arguments (no external crates): the first argument
/// may name a [`Command`]; every flag must be a row of `FLAGS` that the
/// command reads.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Config, String> {
    let mut it = args.into_iter().peekable();
    let command = match it.peek().map(String::as_str) {
        Some("lint") => {
            return Err("medmaker lint was removed: run medmaker check SPEC".to_string())
        }
        Some("check") => Command::Check,
        Some("explain") => Command::Explain,
        Some("serve") => Command::Serve,
        Some("invalidate") => Command::Invalidate,
        Some("cache") => {
            it.next();
            Command::Cache(match it.peek().map(String::as_str) {
                Some("stats") => CacheCmd::Stats,
                Some("clear") => CacheCmd::Clear,
                Some("compact") => CacheCmd::Compact,
                Some(other) => {
                    return Err(format!(
                        "unknown cache action '{other}' (expected stats, clear or compact)\n{USAGE}"
                    ))
                }
                None => {
                    return Err(format!(
                        "cache needs an action: stats, clear or compact\n{USAGE}"
                    ))
                }
            })
        }
        _ => Command::Session,
    };
    if command != Command::Session {
        it.next();
    }
    let mut cfg = Config {
        command,
        name: "med".to_string(),
        ..Default::default()
    };
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            cfg.command = Command::Help;
            return Ok(cfg);
        }
        if !arg.starts_with('-') {
            positional(&mut cfg, arg)?;
            continue;
        }
        let Some(&Flag(_, takes, commands, set)) = FLAGS.iter().find(|f| f.0 == arg) else {
            return Err(format!("unknown option '{arg}'\n{USAGE}"));
        };
        if commands & command.bit() == 0 {
            return Err(format!("{arg} does not apply to {}", command.name()));
        }
        let value = match takes {
            Some(what) => it.next().ok_or_else(|| format!("{arg} needs {what}"))?,
            None => String::new(),
        };
        set(&mut cfg, &value).map_err(|e| format!("{arg} {e}"))?;
    }
    let missing = match command {
        Command::Cache(_) if cfg.cache_dir.is_none() => "cache needs --cache-dir DIR",
        Command::Invalidate if cfg.source.is_none() => "invalidate needs --source NAME",
        Command::Check if cfg.spec_path.is_none() => "check needs a SPEC file",
        _ if command.bit() & MEDIATOR != 0 && cfg.spec_path.is_none() => "--spec is required",
        Command::Explain if cfg.query.is_none() => "explain needs a QUERY argument",
        _ => return Ok(cfg),
    };
    Err(format!("{missing}\n{USAGE}"))
}

/// A non-flag argument: the spec file of `check`, else the query.
fn positional(cfg: &mut Config, arg: String) -> Result<(), String> {
    match cfg.command {
        Command::Check if cfg.spec_path.is_some() => Err("more than one spec file given".into()),
        Command::Check => {
            cfg.spec_path = Some(arg.into());
            Ok(())
        }
        Command::Session | Command::Explain if cfg.query.is_some() => {
            Err("more than one query given".into())
        }
        Command::Session | Command::Explain => {
            cfg.query = Some(arg);
            Ok(())
        }
        Command::Serve => Err(format!(
            "serve takes no QUERY argument (clients send queries over TCP)\n{USAGE}"
        )),
        other => Err(format!("{} takes no QUERY argument\n{USAGE}", other.name())),
    }
}

/// A numeric flag's argument, refused below `min`.
fn number<T: FromStr + PartialOrd + Display>(v: &str, min: T) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        Ok(_) => Err(format!("must be at least {min}")),
        Err(_) => Err(format!("expects a number, got '{v}'")),
    }
}

/// A `NAME=FILE` source argument.
fn named(v: &str) -> Result<(String, PathBuf), String> {
    match v.split_once('=') {
        Some((name, file)) if !name.is_empty() && !file.is_empty() => {
            Ok((name.to_string(), PathBuf::from(file)))
        }
        _ => Err(format!("expects NAME=FILE, got '{v}'")),
    }
}

/// Load the `--oem` / `--csv` sources named on the command line.
pub fn load_sources(cfg: &Config) -> Result<Vec<Arc<dyn Wrapper>>, String> {
    let mut sources: Vec<Arc<dyn Wrapper>> = Vec::new();
    for (name, file) in &cfg.oem_sources {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let store =
            oem::parser::parse_store(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        sources.push(Arc::new(SemiStructuredWrapper::new(name, store)));
    }

    // Group CSV files into one catalog per source name; the table name is
    // the file stem.
    let mut catalogs: BTreeMap<String, minidb::Catalog> = BTreeMap::new();
    for (name, file) in &cfg.csv_sources {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let table_name = file
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad csv file name {}", file.display()))?;
        let table =
            minidb::load_csv(table_name, &text).map_err(|e| format!("{}: {e}", file.display()))?;
        catalogs
            .entry(name.clone())
            .or_default()
            .add_table(table)
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    for (name, catalog) in catalogs {
        sources.push(Arc::new(RelationalWrapper::new(&name, catalog)));
    }
    Ok(sources)
}

/// Load sources and build the mediator.
pub fn build_mediator(cfg: &Config) -> Result<Mediator, String> {
    let spec_path = cfg.spec_path.as_ref().expect("validated by parse_args");
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let sources = load_sources(cfg)?;

    let med = Mediator::new(
        &cfg.name,
        &spec_text,
        sources,
        medmaker::externals::standard_registry(),
    )
    .map_err(|e| e.to_string())?;
    let fault = medmaker::FaultOptions {
        retry: match cfg.retries {
            Some(n) => medmaker::RetryPolicy::retries(n),
            None => Default::default(),
        },
        source_deadline_ms: cfg.source_deadline_ms,
        on_source_failure: if cfg.partial {
            medmaker::OnSourceFailure::Partial
        } else {
            medmaker::OnSourceFailure::Fail
        },
        ..Default::default()
    };
    let cache = medmaker::CacheOptions {
        enabled: cfg.cache,
        capacity: cfg.cache_capacity.unwrap_or(64),
        ttl_ms: cfg.cache_ttl_ms,
        stale_ok: cfg.cache_stale_ok,
        cache_dir: cfg.cache_dir.clone(),
        warm_bytes: cfg
            .cache_warm_bytes
            .unwrap_or(medmaker::cache::DEFAULT_WARM_BYTES),
        ..Default::default()
    };
    let defaults = MediatorOptions::default();
    Ok(med.with_options(MediatorOptions {
        planner: PlannerOptions {
            dedup: !cfg.no_dedup,
            ..Default::default()
        },
        unify_mode: if cfg.minimal {
            engine::unify::UnifyMode::Minimal
        } else {
            engine::unify::UnifyMode::Exhaustive
        },
        fault,
        cache,
        batch_size: cfg.batch_size.unwrap_or(defaults.batch_size),
        ..defaults
    }))
}

/// One diagnostic as a JSON object (`--json` output element).
fn diag_json(d: &msl::Diagnostic, source: &str) -> serde::Value {
    let (line, col) = msl::diag::line_col(source, d.span.start);
    serde::Value::Object(vec![
        ("code".to_string(), serde::Value::Str(d.code.to_string())),
        (
            "severity".to_string(),
            serde::Value::Str(if d.is_error() { "error" } else { "warning" }.to_string()),
        ),
        ("message".to_string(), serde::Value::Str(d.message.clone())),
        (
            "help".to_string(),
            match &d.help {
                Some(h) => serde::Value::Str(h.clone()),
                None => serde::Value::Null,
            },
        ),
        (
            "span".to_string(),
            serde::Value::Object(vec![
                ("start".to_string(), serde::Value::Int(d.span.start as i64)),
                ("end".to_string(), serde::Value::Int(d.span.end as i64)),
            ]),
        ),
        ("line".to_string(), serde::Value::Int(line as i64)),
        ("col".to_string(), serde::Value::Int(col as i64)),
    ])
}

/// Run `medmaker check SPEC`: every static pass
/// ([`medmaker::analysis::check_text`]). Prints every diagnostic and the per-view
/// answerability summary (or one JSON object with `--json`), and returns
/// the process exit code — 0 clean, 1 warnings only, 2 errors. A
/// specification that cannot be read or parsed is reported and exits 2.
pub fn run_check(cfg: &Config, out: &mut impl Write) -> Result<i32, String> {
    let spec_path = cfg.spec_path.as_ref().expect("validated by parse_args");
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let sources = load_sources(cfg)?;
    let infos: BTreeMap<oem::Symbol, medmaker::SourceInfo> = sources
        .iter()
        .map(|w| (w.name(), medmaker::SourceInfo::of_wrapper(w.as_ref())))
        .collect();
    let (_, diags, analysis) = match medmaker::analysis::check_text(&spec_text, &cfg.name, &infos) {
        Ok(r) => r,
        Err(e) => {
            // A specification that does not lex/parse cannot be analyzed.
            if cfg.json {
                let v = serde::Value::Object(vec![(
                    "error".to_string(),
                    serde::Value::Str(e.to_string()),
                )]);
                let text = serde_json::to_string(&v).map_err(|e| e.to_string())?;
                writeln!(out, "{text}").map_err(|e| e.to_string())?;
            } else {
                writeln!(out, "{e}").map_err(|e| e.to_string())?;
            }
            return Ok(2);
        }
    };
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    // One row per view, sorted by name for stable output (Symbol's own
    // order is interning order).
    let mut views: Vec<(String, &medmaker::AnswerMatrix)> = analysis
        .matrices
        .iter()
        .map(|(v, m)| (v.as_str(), m))
        .collect();
    views.sort_by(|a, b| a.0.cmp(&b.0));
    if cfg.json {
        let view_values = views
            .iter()
            .map(|(name, m)| {
                serde::Value::Object(vec![
                    ("view".to_string(), serde::Value::Str(name.clone())),
                    (
                        "attributes".to_string(),
                        serde::Value::Array(
                            m.attributes()
                                .iter()
                                .map(|a| serde::Value::Str(a.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "answerable".to_string(),
                        serde::Value::Array(
                            m.feasible_adornments()
                                .into_iter()
                                .map(serde::Value::Str)
                                .collect(),
                        ),
                    ),
                    (
                        "dead".to_string(),
                        serde::Value::Bool(analysis.dead_views.iter().any(|d| d.as_str() == *name)),
                    ),
                ])
            })
            .collect();
        let v = serde::Value::Object(vec![
            (
                "diagnostics".to_string(),
                serde::Value::Array(diags.iter().map(|d| diag_json(d, &spec_text)).collect()),
            ),
            ("views".to_string(), serde::Value::Array(view_values)),
        ]);
        let text = serde_json::to_string_pretty(&v).map_err(|e| e.to_string())?;
        writeln!(out, "{text}").map_err(|e| e.to_string())?;
    } else {
        for d in &diags {
            writeln!(out, "{}", d.render(&spec_text)).map_err(|e| e.to_string())?;
        }
        for (name, m) in &views {
            let attrs: Vec<String> = m.attributes().iter().map(|a| a.as_str()).collect();
            let dead = analysis.dead_views.iter().any(|d| d.as_str() == *name);
            let status = if dead {
                "dead (never derives an object)".to_string()
            } else if m.is_empty() {
                "unanswerable".to_string()
            } else if m.attributes().is_empty() {
                "answerable".to_string()
            } else {
                format!("answerable for {}", m.feasible_adornments().join(", "))
            };
            writeln!(out, "view '{name}' ({}): {status}", attrs.join(", "))
                .map_err(|e| e.to_string())?;
        }
        writeln!(
            out,
            "{}: {errors} error(s), {warnings} warning(s)",
            spec_path.display()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(if errors > 0 {
        2
    } else if warnings > 0 {
        1
    } else {
        0
    })
}

/// Run `medmaker explain ... QUERY`: print the expansion + plan + traced
/// run, or — with `--analyze` — the EXPLAIN ANALYZE report (observed
/// cardinalities, estimate drift, per-node timing). `--trace-json PATH`
/// additionally writes the raw QueryTrace as JSON. Returns the process
/// exit code (0 on success).
pub fn run_explain(cfg: &Config, out: &mut impl Write) -> Result<i32, String> {
    use serde::Serialize;
    let med = build_mediator(cfg)?;
    let query = cfg.query.as_deref().expect("validated by parse_args");
    if !cfg.analyze {
        explain(&med, query, cfg.lorel, out)?;
        return Ok(0);
    }
    let query = to_msl(&med, query, cfg.lorel, out)?;
    let (report, trace) = med.explain_analyze(&query).map_err(|e| e.to_string())?;
    write!(out, "{report}").map_err(|e| e.to_string())?;
    if let Some(path) = &cfg.trace_json {
        let json = serde_json::to_string_pretty(&trace.to_value()).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        writeln!(out, ";; trace written to {}", path.display()).map_err(|e| e.to_string())?;
    }
    Ok(0)
}

/// Run `medmaker serve`: build the mediator, keep it resident, and answer
/// queries over TCP until SIGINT/SIGTERM (wire formats in DESIGN.md §11,
/// operations in docs/OPERATIONS.md). Prints the bound address on startup
/// so scripts binding port 0 can discover the port. Returns the process
/// exit code.
pub fn run_serve(cfg: &Config, out: &mut impl Write) -> Result<i32, String> {
    let med = build_mediator(cfg)?;
    let options = medmaker_server::ServerOptions {
        addr: cfg
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        workers: cfg.workers.unwrap_or(4),
        queue: cfg.queue.unwrap_or(64),
        ..Default::default()
    };
    let handle = medmaker_server::Server::start(Arc::new(med), options)?;
    writeln!(out, "medmaker serve: listening on {}", handle.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    medmaker_server::signal::install();
    while !medmaker_server::signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    writeln!(out, "medmaker serve: shutting down").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    handle.shutdown();
    Ok(0)
}

/// Run `medmaker cache stats|clear|compact --cache-dir DIR`: open the
/// warm tier offline (no daemon) and print one JSON object describing
/// what was found, freed or compacted. Returns the process exit code
/// (0 on success).
pub fn run_cache(cfg: &Config, out: &mut impl Write) -> Result<i32, String> {
    let Command::Cache(cmd) = cfg.command else {
        return Err("not a cache command".to_string());
    };
    let dir = cfg.cache_dir.as_ref().expect("validated by parse_args");
    let mut tier = medmaker::WarmTier::open(dir)
        .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?;
    let int = |n: u64| serde::Value::Int(n as i64);
    let doc = match cmd {
        CacheCmd::Stats => {
            let s = tier.stats();
            serde::Value::Object(vec![
                ("entries".to_string(), int(s.entries as u64)),
                ("live_bytes".to_string(), int(s.live_bytes)),
                ("disk_bytes".to_string(), int(s.disk_bytes)),
                ("segments".to_string(), int(s.segments as u64)),
                (
                    "corrupt_segments".to_string(),
                    int(s.corrupt_segments as u64),
                ),
                ("torn_segments".to_string(), int(s.torn_segments as u64)),
            ])
        }
        CacheCmd::Clear => {
            let before = tier.stats();
            tier.clear()
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            serde::Value::Object(vec![
                ("cleared_entries".to_string(), int(before.entries as u64)),
                ("freed_bytes".to_string(), int(before.disk_bytes)),
            ])
        }
        CacheCmd::Compact => {
            let budget = cfg
                .cache_warm_bytes
                .unwrap_or(medmaker::cache::DEFAULT_WARM_BYTES);
            let c = tier
                .compact(budget)
                .map_err(|e| format!("cannot compact {}: {e}", dir.display()))?;
            serde::Value::Object(vec![
                ("kept".to_string(), int(c.kept as u64)),
                ("dropped".to_string(), int(c.dropped as u64)),
                ("bytes_before".to_string(), int(c.bytes_before)),
                ("bytes_after".to_string(), int(c.bytes_after)),
            ])
        }
    };
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    writeln!(out, "{text}").map_err(|e| e.to_string())?;
    Ok(0)
}

/// Run `medmaker invalidate --source NAME [--label L]... [--key K]...
/// [--addr HOST:PORT]`: POST a source delta to a running daemon's
/// `/invalidate` endpoint and print its reply body. Returns the process
/// exit code — 0 when the daemon answered 200, 1 otherwise.
pub fn run_invalidate(cfg: &Config, out: &mut impl Write) -> Result<i32, String> {
    use std::io::Read;
    let addr = cfg
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let source = cfg.source.as_ref().expect("validated by parse_args");
    let strs = |xs: &[String]| {
        serde::Value::Array(xs.iter().map(|x| serde::Value::Str(x.clone())).collect())
    };
    let mut fields = vec![("source".to_string(), serde::Value::Str(source.clone()))];
    if !cfg.labels.is_empty() {
        fields.push(("labels".to_string(), strs(&cfg.labels)));
    }
    if !cfg.keys.is_empty() {
        fields.push(("keys".to_string(), strs(&cfg.keys)));
    }
    let body = serde_json::to_string(&serde::Value::Object(fields)).map_err(|e| e.to_string())?;
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let request = format!(
        "POST /invalidate HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read reply from {addr}: {e}"))?;
    let status_ok = response.starts_with("HTTP/1.1 200");
    let reply_body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or(&response);
    writeln!(out, "{}", reply_body.trim_end()).map_err(|e| e.to_string())?;
    Ok(if status_ok { 0 } else { 1 })
}

/// QUERY as MSL text: translated from LOREL when `lorel` is set, in which
/// case the translation is echoed to `out` as a `;; MSL:` line.
fn to_msl<'q>(
    med: &Mediator,
    query: &'q str,
    lorel: bool,
    out: &mut impl Write,
) -> Result<Cow<'q, str>, String> {
    if !lorel {
        return Ok(Cow::Borrowed(query));
    }
    let rule = lorel::to_msl(query, &med.spec().name.as_str()).map_err(|e| e.to_string())?;
    let msl_text = msl::printer::rule(&rule);
    writeln!(out, ";; MSL: {msl_text}").map_err(|e| e.to_string())?;
    Ok(Cow::Owned(msl_text))
}

/// Print QUERY's logical program, physical plan and a traced run: what
/// `medmaker explain` and the session's `.explain` print.
fn explain(med: &Mediator, query: &str, lorel: bool, out: &mut impl Write) -> Result<(), String> {
    let query = to_msl(med, query, lorel, out)?;
    let text = med.explain_text(&query, true).map_err(|e| e.to_string())?;
    write!(out, "{text}").map_err(|e| e.to_string())
}

/// Run one query, writing its answer to `out`. `lorel` translates the
/// query from LOREL first.
pub fn run_query(
    med: &Mediator,
    query: &str,
    lorel: bool,
    out: &mut impl Write,
) -> Result<(), String> {
    let query = to_msl(med, query, lorel, out)?;
    let rule = msl::parse_query(&query).map_err(|e| e.to_string())?;
    let outcome = med.query_rule(&rule).map_err(|e| e.to_string())?;
    let results = &outcome.results;
    write!(out, "{}", oem::printer::print_store(results)).map_err(|e| e.to_string())?;
    writeln!(out, ";; {} object(s)", results.top_level().len()).map_err(|e| e.to_string())?;
    let completeness = &outcome.trace.completeness;
    if !completeness.is_complete() {
        let failed: Vec<String> = completeness
            .sources_failed
            .iter()
            .map(|(s, why)| format!("{s} ({why})"))
            .collect();
        writeln!(
            out,
            ";; PARTIAL: failed sources: {}; {} chain(s) dropped",
            failed.join(", "),
            completeness.skipped_chains.len()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The interactive session loop; `lorel` switches the default query
/// language of plain lines.
pub fn repl(
    med: &Mediator,
    lorel: bool,
    input: impl BufRead,
    out: &mut impl Write,
) -> Result<(), String> {
    writeln!(
        out,
        "medmaker interactive session — mediator '{}'. Type .help for commands.",
        med.spec().name
    )
    .map_err(|e| e.to_string())?;
    for line in input.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".help" => {
                writeln!(
                    out,
                    ".spec            print the mediator specification\n\
                     .sources         list sources\n\
                     .explain QUERY   show expansion + plan + traced run\n\
                     .lorel QUERY     run a LOREL (select/from/where) query\n\
                     .quit            leave\n\
                     anything else    run as a query"
                )
                .map_err(|e| e.to_string())?;
            }
            ".spec" => {
                writeln!(out, "{}", med.spec().to_text()).map_err(|e| e.to_string())?;
            }
            ".sources" => {
                for s in med.spec().sources() {
                    writeln!(out, "  @{s}").map_err(|e| e.to_string())?;
                }
            }
            _ if line.starts_with(".explain") => {
                let q = line.trim_start_matches(".explain").trim();
                if let Err(e) = explain(med, q, lorel, out) {
                    writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                }
            }
            _ if line.starts_with(".lorel") => {
                let q = line.trim_start_matches(".lorel").trim();
                if let Err(e) = run_query(med, q, true, out) {
                    writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                }
            }
            query => {
                if let Err(e) = run_query(med, query, lorel, out) {
                    writeln!(out, "error: {e}").map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_full_command_line() {
        let cfg = parse_args(argv(
            "explain --spec med.msl --name m --oem whois=w.oem --csv cs=emp.csv --csv cs=stu.csv \
             --minimal --no-dedup QUERY",
        ))
        .unwrap();
        assert_eq!(cfg.name, "m");
        assert_eq!(cfg.spec_path.as_ref().unwrap().to_str(), Some("med.msl"));
        assert_eq!(cfg.oem_sources.len(), 1);
        assert_eq!(cfg.csv_sources.len(), 2);
        assert!(cfg.minimal && cfg.no_dedup && cfg.command == Command::Explain);
        assert_eq!(cfg.query.as_deref(), Some("QUERY"));
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cfg = parse_args(argv(
            "--spec med.msl --retries 3 --source-deadline-ms 250 --partial QUERY",
        ))
        .unwrap();
        assert_eq!(cfg.retries, Some(3));
        assert_eq!(cfg.source_deadline_ms, Some(250));
        assert!(cfg.partial);
        // Defaults: fail-fast, no retry, no deadline.
        let cfg = parse_args(argv("--spec med.msl QUERY")).unwrap();
        assert_eq!(cfg.retries, None);
        assert_eq!(cfg.source_deadline_ms, None);
        assert!(!cfg.partial);
        // Both numeric flags validate their argument.
        assert!(parse_args(argv("--spec s.msl --retries many")).is_err());
        assert!(parse_args(argv("--spec s.msl --retries")).is_err());
        assert!(parse_args(argv("--spec s.msl --source-deadline-ms soon")).is_err());
        assert!(parse_args(argv("--spec s.msl --source-deadline-ms")).is_err());
    }

    #[test]
    fn parse_cache_flags() {
        let cfg = parse_args(argv(
            "--spec med.msl --cache --cache-capacity 8 --cache-ttl-ms 5000 --cache-stale-ok QUERY",
        ))
        .unwrap();
        assert!(cfg.cache);
        assert_eq!(cfg.cache_capacity, Some(8));
        assert_eq!(cfg.cache_ttl_ms, Some(5000));
        assert!(cfg.cache_stale_ok);
        // Default: cache off — every query pays its round-trips.
        let cfg = parse_args(argv("--spec med.msl QUERY")).unwrap();
        assert!(!cfg.cache);
        assert_eq!(cfg.cache_capacity, None);
        assert_eq!(cfg.cache_ttl_ms, None);
        assert!(!cfg.cache_stale_ok);
        // Numeric flags validate their argument.
        assert!(parse_args(argv("--spec s.msl --cache-capacity lots")).is_err());
        assert!(parse_args(argv("--spec s.msl --cache-capacity")).is_err());
        assert!(parse_args(argv("--spec s.msl --cache-ttl-ms forever")).is_err());
        assert!(parse_args(argv("--spec s.msl --cache-ttl-ms")).is_err());
    }

    #[test]
    fn parse_streaming_flags() {
        let cfg = parse_args(argv("--spec med.msl --batch-size 128 QUERY")).unwrap();
        assert_eq!(cfg.batch_size, Some(128));
        // Default: the mediator's own batch size.
        let cfg = parse_args(argv("--spec med.msl QUERY")).unwrap();
        assert_eq!(cfg.batch_size, None);
        // The batch size validates its argument and rejects zero.
        assert!(parse_args(argv("--spec s.msl --batch-size tiny")).is_err());
        assert!(parse_args(argv("--spec s.msl --batch-size 0")).is_err());
        assert!(parse_args(argv("--spec s.msl --batch-size")).is_err());
        // The flags that chose a second executor, an eviction policy or
        // cost weights are gone, and so is the second way to explain.
        for retired in [
            "--materialize",
            "--cache-fifo",
            "--cost-weights",
            "--explain",
        ] {
            let err = parse_args(argv(&format!("--spec s.msl {retired} QUERY"))).unwrap_err();
            assert!(
                err.contains(&format!("unknown option '{retired}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_serve_flags() {
        let cfg = parse_args(argv(
            "serve --spec med.msl --addr 0.0.0.0:7070 --workers 8 --queue 16 --cache --partial",
        ))
        .unwrap();
        assert_eq!(cfg.command, Command::Serve);
        assert_eq!(cfg.addr.as_deref(), Some("0.0.0.0:7070"));
        assert_eq!(cfg.workers, Some(8));
        assert_eq!(cfg.queue, Some(16));
        // Standing mediator flags still apply to the resident mediator.
        assert!(cfg.cache && cfg.partial);
        // Defaults: all None (run_serve fills in 127.0.0.1:7070, 4, 64).
        let cfg = parse_args(argv("serve --spec med.msl")).unwrap();
        assert_eq!(cfg.command, Command::Serve);
        assert!(cfg.addr.is_none() && cfg.workers.is_none() && cfg.queue.is_none());
        // serve takes no positional query; serve-only flags need serve.
        assert!(parse_args(argv("serve --spec med.msl QUERY")).is_err());
        assert!(parse_args(argv("--spec med.msl --addr 1.2.3.4:1 QUERY")).is_err());
        assert!(parse_args(argv("serve --spec s.msl --workers 0")).is_err());
        assert!(parse_args(argv("serve --spec s.msl --workers many")).is_err());
        assert!(parse_args(argv("serve --spec s.msl --queue")).is_err());
    }

    #[test]
    fn parse_tiered_cache_flags() {
        let cfg = parse_args(argv(
            "--spec med.msl --cache-dir /tmp/warm --cache-warm-bytes 1024 QUERY",
        ))
        .unwrap();
        // --cache-dir implies --cache.
        assert!(cfg.cache);
        assert_eq!(cfg.cache_dir.as_ref().unwrap().to_str(), Some("/tmp/warm"));
        assert_eq!(cfg.cache_warm_bytes, Some(1024));
        // Default: memory-only.
        let cfg = parse_args(argv("--spec med.msl --cache QUERY")).unwrap();
        assert!(cfg.cache_dir.is_none());
        assert_eq!(cfg.cache_warm_bytes, None);
        // The byte budget validates its argument and rejects zero.
        assert!(parse_args(argv("--spec s.msl --cache-warm-bytes big")).is_err());
        assert!(parse_args(argv("--spec s.msl --cache-warm-bytes 0")).is_err());
        assert!(parse_args(argv("--spec s.msl --cache-dir")).is_err());
    }

    #[test]
    fn cache_subcommand_parsed() {
        let cfg = parse_args(argv("cache stats --cache-dir /tmp/warm")).unwrap();
        assert_eq!(cfg.command, Command::Cache(CacheCmd::Stats));
        assert_eq!(cfg.cache_dir.as_ref().unwrap().to_str(), Some("/tmp/warm"));
        let cfg = parse_args(argv("cache clear --cache-dir d")).unwrap();
        assert_eq!(cfg.command, Command::Cache(CacheCmd::Clear));
        let cfg = parse_args(argv("cache compact --cache-dir d --cache-warm-bytes 4096")).unwrap();
        assert_eq!(cfg.command, Command::Cache(CacheCmd::Compact));
        assert_eq!(cfg.cache_warm_bytes, Some(4096));
        // The action and the directory are both required; no extras.
        assert!(parse_args(argv("cache")).is_err());
        assert!(parse_args(argv("cache defrag --cache-dir d")).is_err());
        assert!(parse_args(argv("cache stats")).is_err());
        assert!(parse_args(argv("cache stats --cache-dir d QUERY")).is_err());
    }

    #[test]
    fn invalidate_subcommand_parsed() {
        let cfg = parse_args(argv(
            "invalidate --addr 127.0.0.1:9 --source whois --label head --label dept --key k1",
        ))
        .unwrap();
        assert_eq!(cfg.command, Command::Invalidate);
        assert_eq!(cfg.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(cfg.source.as_deref(), Some("whois"));
        assert_eq!(cfg.labels, vec!["head".to_string(), "dept".to_string()]);
        assert_eq!(cfg.keys, vec!["k1".to_string()]);
        // --source is required; no query; scope flags need invalidate mode.
        assert!(parse_args(argv("invalidate --addr 127.0.0.1:9")).is_err());
        assert!(parse_args(argv("invalidate --source s QUERY")).is_err());
        assert!(parse_args(argv("--spec s.msl --label x QUERY")).is_err());
        assert!(parse_args(argv("--spec s.msl --key x QUERY")).is_err());
        assert!(parse_args(argv("invalidate --source")).is_err());
    }

    #[test]
    fn cache_subcommand_end_to_end_over_a_real_warm_tier() {
        let dir = std::env::temp_dir().join(format!("medmaker-cli-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let warm = dir.join("warm");
        let spec = dir.join("spec.msl");
        std::fs::write(&spec, "<v {<n N>}> :- <person {<name N>}>@src\n").unwrap();
        let oem_file = dir.join("src.oem");
        std::fs::write(&oem_file, "<&p1, person, set, {<&n1, name, 'Ann'>}>\n").unwrap();
        // A query through a --cache-dir mediator populates the warm tier.
        let cfg = parse_args(argv(&format!(
            "--spec {} --name m --oem src={} --cache-dir {}",
            spec.display(),
            oem_file.display(),
            warm.display()
        )))
        .unwrap();
        let med = build_mediator(&cfg).unwrap();
        let mut out = Vec::new();
        run_query(&med, "X :- X:<v {}>@m", false, &mut out).unwrap();
        drop(med);
        let stats = |out: &[u8]| -> serde::Value {
            serde_json::from_str(&String::from_utf8_lossy(out)).unwrap()
        };
        // stats sees the persisted entry.
        let cfg = parse_args(argv(&format!("cache stats --cache-dir {}", warm.display()))).unwrap();
        let mut out = Vec::new();
        assert_eq!(run_cache(&cfg, &mut out).unwrap(), 0);
        let v = stats(&out);
        assert_eq!(v.get("entries").unwrap().as_i64(), Some(1));
        assert!(v.get("disk_bytes").unwrap().as_i64().unwrap() > 0);
        // compact keeps it (budget is generous).
        let cfg = parse_args(argv(&format!(
            "cache compact --cache-dir {} --cache-warm-bytes 1048576",
            warm.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(run_cache(&cfg, &mut out).unwrap(), 0);
        let v = stats(&out);
        assert_eq!(v.get("kept").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("dropped").unwrap().as_i64(), Some(0));
        // clear empties the tier.
        let cfg = parse_args(argv(&format!("cache clear --cache-dir {}", warm.display()))).unwrap();
        let mut out = Vec::new();
        assert_eq!(run_cache(&cfg, &mut out).unwrap(), 0);
        let v = stats(&out);
        assert_eq!(v.get("cleared_entries").unwrap().as_i64(), Some(1));
        let cfg = parse_args(argv(&format!("cache stats --cache-dir {}", warm.display()))).unwrap();
        let mut out = Vec::new();
        assert_eq!(run_cache(&cfg, &mut out).unwrap(), 0);
        assert_eq!(stats(&out).get("entries").unwrap().as_i64(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidate_subcommand_talks_to_a_live_daemon() {
        use std::sync::Arc;
        use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
        let med = Mediator::new(
            "med",
            MS1,
            vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            cache: medmaker::CacheOptions::enabled(),
            ..Default::default()
        });
        let handle = medmaker_server::Server::start(
            Arc::new(med),
            medmaker_server::ServerOptions {
                addr: "127.0.0.1:0".to_string(),
                ..Default::default()
            },
        )
        .unwrap();
        let cfg = parse_args(argv(&format!(
            "invalidate --addr {} --source whois",
            handle.addr()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_invalidate(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("\"invalidated\""), "{text}");
        handle.shutdown();
        // A dead address is a connection error, not a panic.
        let cfg = parse_args(argv("invalidate --addr 127.0.0.1:1 --source whois")).unwrap();
        let mut out = Vec::new();
        let err = run_invalidate(&cfg, &mut out).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(argv("--oem whois=w.oem")).is_err()); // no --spec
        assert!(parse_args(argv("--spec s.msl --oem broken")).is_err());
        assert!(parse_args(argv("--spec s.msl --frob")).is_err());
        assert!(parse_args(argv("--spec s.msl q1 q2")).is_err());
        assert!(parse_args(argv("--spec")).is_err());
    }

    #[test]
    fn build_and_query_in_memory() {
        // Exercise build_mediator through temp files.
        let dir = std::env::temp_dir().join(format!("medmaker-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.msl");
        std::fs::write(&spec, "<v {<n N>}> :- <person {<name N>}>@src\n").unwrap();
        let oem_file = dir.join("src.oem");
        std::fs::write(&oem_file, "<&p1, person, set, {<&n1, name, 'Ann'>}>\n").unwrap();
        let cfg = parse_args(argv(&format!(
            "--spec {} --name m --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let med = build_mediator(&cfg).unwrap();
        let mut out = Vec::new();
        run_query(&med, "X :- X:<v {}>@m", false, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("'Ann'"), "{text}");
        assert!(text.contains(";; 1 object(s)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_query_prints_partial_notice_when_a_source_is_down() {
        use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
        let spec = "<v {<n N> <from 'up'>}> :- <person {<name N>}>@up\n\
                    <v {<n N> <from 'down'>}> :- <person {<name N>}>@down\n";
        let store = oem::parser::parse_store("<&p1, person, set, {<&n1, name, 'Ann'>}>").unwrap();
        let up: Arc<dyn Wrapper> = Arc::new(SemiStructuredWrapper::new("up", store.clone()));
        let down: Arc<dyn Wrapper> = Arc::new(FaultInjectingWrapper::new(
            Arc::new(SemiStructuredWrapper::new("down", store)),
            FaultPlan::always_down(),
        ));
        let med = Mediator::new(
            "m",
            spec,
            vec![up, down],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            fault: medmaker::FaultOptions {
                on_source_failure: medmaker::OnSourceFailure::Partial,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut out = Vec::new();
        run_query(&med, "X :- X:<v {}>@m", false, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("'Ann'"), "{text}");
        assert!(text.contains(";; PARTIAL: failed sources: down"), "{text}");
        assert!(text.contains("chain(s) dropped"), "{text}");
    }

    fn temp_spec(tag: &str, text: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("medmaker-lint-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.msl");
        std::fs::write(&spec, text).unwrap();
        (dir, spec)
    }

    #[test]
    fn lint_subcommand_is_gone() {
        for args in ["lint", "lint spec.msl --json"] {
            let err = parse_args(argv(args)).unwrap_err();
            assert!(err.contains("medmaker check"), "{err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
    }

    #[test]
    fn explain_subcommand_parsed() {
        let cfg = parse_args(argv(
            "explain --spec s.msl --analyze --trace-json t.json QUERY",
        ))
        .unwrap();
        assert!(cfg.command == Command::Explain && cfg.analyze);
        assert_eq!(cfg.trace_json.as_ref().unwrap().to_str(), Some("t.json"));
        assert_eq!(cfg.query.as_deref(), Some("QUERY"));
        // --trace-json alone implies --analyze.
        let cfg = parse_args(argv("explain --spec s.msl --trace-json t.json Q")).unwrap();
        assert!(cfg.analyze);
        // QUERY is required; --analyze is explain-only.
        assert!(parse_args(argv("explain --spec s.msl")).is_err());
        assert!(parse_args(argv("--spec s.msl --analyze Q")).is_err());
        assert!(parse_args(argv("explain --spec s.msl --trace-json")).is_err());
    }

    #[test]
    fn explain_analyze_end_to_end_with_trace_json() {
        use serde::Deserialize;
        let dir =
            std::env::temp_dir().join(format!("medmaker-explain-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.msl");
        std::fs::write(&spec, "<v {<n N>}> :- <person {<name N>}>@src\n").unwrap();
        let oem_file = dir.join("src.oem");
        std::fs::write(&oem_file, "<&p1, person, set, {<&n1, name, 'Ann'>}>\n").unwrap();
        let trace_path = dir.join("trace.json");
        let cfg = parse_args(argv(&format!(
            "explain --spec {} --name m --oem src={} --trace-json {} X_:-_X:<v_{{}}>@m",
            spec.display(),
            oem_file.display(),
            trace_path.display()
        )))
        .unwrap();
        // argv() splits on whitespace, so the query was smuggled through
        // with underscores; put the real text back.
        let cfg = Config {
            query: Some("X :- X:<v {}>@m".to_string()),
            ..cfg
        };
        let mut out = Vec::new();
        let code = run_explain(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("rows: "), "{text}");
        assert!(text.contains("=== totals ==="), "{text}");
        assert!(text.contains("trace written to"), "{text}");
        // The written JSON parses back into a QueryTrace.
        let json = std::fs::read_to_string(&trace_path).unwrap();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let trace = medmaker::metrics::QueryTrace::from_value(&v).unwrap();
        assert_eq!(trace.result_count, 1);
        assert!(!trace.rules.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_subcommand_parsed() {
        let cfg = parse_args(argv("check spec.msl --json --name m")).unwrap();
        assert!(cfg.command == Command::Check && cfg.json);
        assert_eq!(cfg.spec_path.as_ref().unwrap().to_str(), Some("spec.msl"));
        assert_eq!(cfg.name, "m");
        // The spec file is required, and --json needs check mode.
        assert!(parse_args(argv("check")).is_err());
        assert!(parse_args(argv("--spec s.msl --json")).is_err());
    }

    fn temp_oem_source(dir: &std::path::Path) -> std::path::PathBuf {
        let oem_file = dir.join("src.oem");
        std::fs::write(&oem_file, "<&p1, person, set, {<&n1, name, 'Ann'>}>\n").unwrap();
        oem_file
    }

    #[test]
    fn check_clean_spec_exits_zero_and_prints_matrix() {
        let (dir, spec) = temp_spec("check-clean", "<v {<n N>}> :- <person {<name N>}>@src\n");
        let oem_file = temp_oem_source(&dir);
        let cfg = parse_args(argv(&format!(
            "check {} --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("view 'v' (n): answerable for f, b"), "{text}");
        assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_flags_unknown_label_with_did_you_mean() {
        // `nmae` is a typo for `name`, which the source's summary knows.
        let (dir, spec) = temp_spec("check-w301", "<v {<n N>}> :- <person {<nmae N>}>@src\n");
        let oem_file = temp_oem_source(&dir);
        let cfg = parse_args(argv(&format!(
            "check {} --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("warning[W301]"), "{text}");
        assert!(text.contains("did you mean 'name'"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_flags_impossible_constant_as_error() {
        // `name` holds strings in the source; matching the integer 5
        // against it is provably empty.
        let (dir, spec) = temp_spec(
            "check-e301",
            "<v {<n N>}> :- <person {<name 5> <name N>}>@src\n",
        );
        let oem_file = temp_oem_source(&dir);
        let cfg = parse_args(argv(&format!(
            "check {} --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("error[E301]"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_json_has_diagnostics_and_views() {
        let (dir, spec) = temp_spec("check-json", "<v {<n N>}> :- <person {<nmae N>}>@src\n");
        let oem_file = temp_oem_source(&dir);
        let cfg = parse_args(argv(&format!(
            "check {} --json --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        assert_eq!(code, 1);
        let text = String::from_utf8(out).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let diags = v.get("diagnostics").unwrap().as_array().unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.get("code").unwrap().as_str() == Some("W301")),
            "{text}"
        );
        let views = v.get("views").unwrap().as_array().unwrap();
        assert_eq!(views.len(), 1, "{text}");
        assert_eq!(views[0].get("view").unwrap().as_str(), Some("v"));
        assert_eq!(views[0].get("dead").unwrap().as_bool(), Some(false));
        assert!(
            !views[0]
                .get("answerable")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_unparseable_spec_exits_two() {
        let (dir, spec) = temp_spec("check-bad", "<<< not msl\n");
        let cfg = parse_args(argv(&format!("check {} --json", spec.display()))).unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        assert_eq!(code, 2);
        let text = String::from_utf8(out).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        assert!(v.get("error").is_some(), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_renders_warnings_and_exits_one() {
        // X is bound in the tail and never used again -> W102.
        let (dir, spec) = temp_spec("warn", "<v {<n N>}> :- <person {<name N> <x X>}>@src\n");
        let cfg = parse_args(argv(&format!("check {}", spec.display()))).unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("warning[W102]"), "{text}");
        assert!(text.contains("0 error(s), 1 warning(s)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_collects_multiple_defects_and_exits_two() {
        // One unanswerable external (E005/E014 family) plus an unused
        // variable: everything is reported in a single run.
        let (dir, spec) = temp_spec(
            "multi",
            "<v {<n N> <l L>}> :- <person {<name N> <x X>}>@src AND conv(N, L)\n",
        );
        let cfg = parse_args(argv(&format!("check {}", spec.display()))).unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("error[E005]"), "{text}");
        assert!(text.contains("warning[W102]"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_json_diagnostic_fields() {
        let (dir, spec) = temp_spec("json", "<v {<n N>}> :- <person {<name N> <x X>}>@src\n");
        let cfg = parse_args(argv(&format!("check {} --json", spec.display()))).unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        assert_eq!(code, 1);
        let text = String::from_utf8(out).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let items = v.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 1, "{text}");
        let d = &items[0];
        assert_eq!(d.get("code").unwrap().as_str(), Some("W102"));
        assert_eq!(d.get("severity").unwrap().as_str(), Some("warning"));
        assert!(d.get("message").unwrap().as_str().unwrap().contains("X"));
        let span = d.get("span").unwrap();
        let start = span.get("start").unwrap().as_i64().unwrap();
        let end = span.get("end").unwrap().as_i64().unwrap();
        assert!(start < end, "{text}");
        assert_eq!(d.get("line").unwrap().as_i64(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_judges_capabilities_of_registered_sources() {
        // An OEM source declares full capabilities, so a wildcard and a
        // label variable, which a restricted source refuses (E202), are
        // clean against it.
        let (dir, spec) = temp_spec(
            "caps",
            "<v {<n N> <l L> <x V>}> :- <person {* <name N> <L V>}>@src\n",
        );
        let oem_file = temp_oem_source(&dir);
        let cfg = parse_args(argv(&format!(
            "check {} --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        let code = run_check(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repl_session() {
        let dir = std::env::temp_dir().join(format!("medmaker-repl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.msl");
        std::fs::write(&spec, "<v {<n N>}> :- <person {<name N>}>@src\n").unwrap();
        let oem_file = dir.join("src.oem");
        std::fs::write(&oem_file, "<&p1, person, set, {<&n1, name, 'Ann'>}>\n").unwrap();
        let cfg = parse_args(argv(&format!(
            "--spec {} --name m --oem src={}",
            spec.display(),
            oem_file.display()
        )))
        .unwrap();
        let med = build_mediator(&cfg).unwrap();
        let input = b".help\n.spec\n.sources\nX :- X:<v {}>@m\nbad query\n.quit\n";
        let mut out = Vec::new();
        repl(&med, false, &input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(".explain QUERY"), "{text}");
        assert!(text.contains("@src"), "{text}");
        assert!(text.contains("'Ann'"), "{text}");
        assert!(text.contains("error:"), "{text}");
    }

    #[test]
    fn a_flag_a_command_never_reads_is_refused() {
        for (args, flag, command) in [
            ("check s.msl --cache", "--cache", "check"),
            ("check s.msl --lorel", "--lorel", "check"),
            ("cache stats --cache-dir d --spec s.msl", "--spec", "cache"),
            (
                "invalidate --source s --batch-size 2",
                "--batch-size",
                "invalidate",
            ),
            ("serve --spec s.msl --lorel", "--lorel", "serve"),
        ] {
            let err = parse_args(argv(args)).unwrap_err();
            assert!(
                err.contains(&format!("{flag} does not apply to {command}")),
                "{args}: {err}"
            );
        }
    }

    #[test]
    fn usage_documents_exactly_the_flag_table() {
        for Flag(name, takes, _, _) in FLAGS {
            let shown = match takes {
                Some(what) => format!("{name} {what}"),
                None => format!("[{name}]"),
            };
            assert!(USAGE.contains(&shown), "USAGE lacks {shown}");
        }
        for token in USAGE.split("--").skip(1) {
            let word: String = token
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            let word = format!("--{word}");
            assert!(
                FLAGS.iter().any(|f| f.0 == word),
                "USAGE names {word}, which is no flag"
            );
        }
    }

    /// Split a shell command line into words: `'…'` and `"…"` quote, `\`
    /// escapes one character, and a `#` starting a word starts a comment.
    fn shell_words(line: &str) -> Vec<String> {
        let mut words = Vec::new();
        let mut word: Option<String> = None;
        let mut chars = line.chars();
        while let Some(c) = chars.next() {
            match c {
                '#' if word.is_none() => break,
                c if c.is_whitespace() => words.extend(word.take()),
                '\'' | '"' => word
                    .get_or_insert_with(String::new)
                    .extend(chars.by_ref().take_while(|&q| q != c)),
                '\\' => word.get_or_insert_with(String::new).extend(chars.next()),
                c => word.get_or_insert_with(String::new).push(c),
            }
        }
        words.extend(word);
        words
    }

    #[test]
    fn every_documented_invocation_parses() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for doc in ["README.md", "docs/OPERATIONS.md"] {
            let text = std::fs::read_to_string(root.join(doc)).unwrap();
            let mut shell = false;
            let mut line = String::new();
            for raw in text.lines() {
                if let Some(info) = raw.strip_prefix("```") {
                    shell = !shell && matches!(info, "bash" | "sh");
                    continue;
                }
                if !shell {
                    continue;
                }
                // Join `\` continuations into one command line.
                if let Some(head) = raw.strip_suffix('\\') {
                    line.push_str(head);
                    continue;
                }
                line.push_str(raw);
                let command = std::mem::take(&mut line);
                let command = command.trim_start().trim_start_matches("$ ");
                let words = shell_words(command);
                let args = if let Some(i) = words
                    .windows(3)
                    .position(|w| w == ["--bin", "medmaker", "--"])
                {
                    &words[i + 3..]
                } else if matches!(
                    words.first().map(String::as_str),
                    Some("medmaker" | "target/release/medmaker")
                ) {
                    &words[1..]
                } else {
                    continue;
                };
                seen += 1;
                if let Err(e) = parse_args(args.to_vec()) {
                    panic!("{doc}: `{command}` does not parse: {e}");
                }
            }
        }
        assert!(seen >= 15, "found only {seen} invocations");
    }
}
