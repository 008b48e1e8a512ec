//! `perf` — the repository's one wall-clock benchmark.
//!
//! ```text
//! perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--repeat R] [--smoke] [--out PATH]
//! perf list
//! perf agree A.json B.json
//! ```
//!
//! It measures the mediator only from outside: the end-to-end run times
//! the public entry points a user calls, and the traced run times the
//! benchmark's own calls into each layer. See README.md beside this
//! package for the metric definitions and the reason for each workload.

mod catalog;
mod client;
mod drive;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS};
use drive::{cursors, drive, summarise, Tally};
use report::{Header, Measured, Record};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::SpanLog;
use workload::{Fixture, Kind, SetupCost};

/// Where the benchmark may write: under cargo's target directory, which
/// the driver places inside the checkout and `.gitignore` excludes.
pub fn scratch_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf")
}

/// What `perf run` was asked for.
#[derive(Clone, Debug)]
struct RunArgs {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: u64,
    smoke: bool,
    out: Option<PathBuf>,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut run = RunArgs {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS as f64,
            traced: false,
            repeat: 1,
            smoke: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    run.workload =
                        Some(Kind::from_name(name).ok_or_else(|| {
                            format!("unknown workload `{name}`; see `perf list`")
                        })?);
                }
                "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                        return Err("--seconds must be above 0 and at most 600".to_string());
                    }
                }
                "--trace" => {
                    run.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--traced" => run.traced = true,
                "--repeat" => {
                    run.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if !(1..=100).contains(&run.repeat) {
                        return Err("--repeat must be 1 to 100".to_string());
                    }
                }
                "--smoke" => run.smoke = true,
                "--out" => run.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        if run.smoke {
            run.seconds = 1.0;
        }
        Ok(run)
    }

    /// Warm-up before the window: long enough for caches and learned
    /// statistics to settle, short against the window.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 8.0).clamp(0.2, 1.0))
    }
}

/// Share of a part of the window that the rehearsal at its end may take
/// before it stops repeating the set-up. One set-up is made whatever it
/// costs.
const REHEARSAL_SHARE: f64 = 0.1;

/// First line of a command's output, or `unknown`. `git` is kept from
/// looking for a repository above the working directory.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf));
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above.unwrap_or_default())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(run: &RunArgs) -> Header {
    Header {
        commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        rustc: first_line_of("rustc", &["-V"]),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: run.seed,
        warmup_s: run.warmup().as_secs_f64(),
        window_s: run.seconds,
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up and close it again, once and then over and over
/// until `budget` is spent (at most 100 times): everything anew each time,
/// a fresh warm-tier directory included.
fn rehearse(
    kind: Kind,
    seed: u64,
    stream: &workload::Stream,
    scratch: &Path,
    budget: Duration,
) -> Result<Vec<SetupCost>, String> {
    let started = Instant::now();
    let mut costs = Vec::new();
    while costs.is_empty() || (costs.len() < 100 && started.elapsed() < budget) {
        let (fixture, cost) = Fixture::build(kind, seed, stream, scratch, None)?;
        fixture.close();
        costs.push(cost);
    }
    Ok(costs)
}

/// The quickest of several set-ups, each part on its own.
fn quickest(costs: &[SetupCost]) -> SetupCost {
    let of = |f: fn(&SetupCost) -> f64| costs.iter().map(f).fold(f64::INFINITY, f64::min);
    SetupCost {
        setup_s: of(|c| c.setup_s),
        mediator_new_ms: of(|c| c.mediator_new_ms),
    }
}

/// What the untraced window produced.
struct Window {
    /// Every operation of the window; completion times count from its
    /// opening.
    tally: Tally,
    /// The time spent driving the fixture, rehearsals left out.
    driven: Duration,
    /// What each rehearsed set-up cost.
    rehearsed: Vec<SetupCost>,
    /// `VmHWM` when the first part had been driven: the peak of one
    /// mediator at work, before a second fixture was built beside it.
    peak_rss_mb: f64,
}

/// The untraced window, cut into equal parts of a second, or six set-ups
/// where that is longer (`one_setup` is how long one is expected to take).
/// Each part drives `fixture` and then rehearses the set-up on a fixture of
/// its own, so that set-ups are timed at moments spread over the whole run
/// and some of them find the machine quiet.
fn measure(
    fixture: &Fixture,
    run: &RunArgs,
    stream: &workload::Stream,
    refs: &[workload::Reference],
    scratch: &Path,
    one_setup: Duration,
) -> Result<Window, String> {
    let kind = fixture.kind;
    let whole = Duration::from_secs_f64(run.seconds);
    let part = one_setup.mul_f64(6.0).max(Duration::from_secs(1));
    let parts = ((whole.as_secs_f64() / part.as_secs_f64()) as u32).max(1);
    let part = whole / parts;
    let budget = part.mul_f64(REHEARSAL_SHARE);
    let mut cursors = cursors(kind);
    let mut window = Window {
        tally: drive(fixture, stream, refs, &mut cursors, run.warmup()),
        driven: Duration::ZERO,
        rehearsed: Vec::new(),
        peak_rss_mb: 0.0,
    };
    window.tally.samples.clear();
    let mut rehearsal = one_setup.max(budget);
    let opened = Instant::now();
    for i in 1..=parts {
        // Drive up to where the rehearsal has to begin for the part to end
        // on time, but a quarter of the part whatever the rehearsals cost.
        let begun = opened.elapsed();
        let length = (part * i).saturating_sub(begun + rehearsal).max(part / 4);
        let mut tally = drive(fixture, stream, refs, &mut cursors, length);
        window.driven += opened.elapsed() - begun;
        for s in &mut tally.samples {
            s.end_ns += begun.as_nanos() as u64;
        }
        window.tally.merge(tally);
        if i == 1 {
            window.peak_rss_mb = peak_rss_mb();
        }
        let begun = opened.elapsed();
        window
            .rehearsed
            .extend(rehearse(kind, run.seed, stream, scratch, budget)?);
        rehearsal = opened.elapsed() - begun;
    }
    Ok(window)
}

/// One run of one workload, in this process.
fn run_workload(kind: Kind, run: &RunArgs, scratch: &Path) -> Result<Record, String> {
    let window = Duration::from_secs_f64(run.seconds);
    let stream = workload::stream(kind, run.seed);
    let refs = workload::references(kind, run.seed, &stream)?;
    let (fixture, cost) = Fixture::build(kind, run.seed, &stream, scratch, None)?;
    let mut costs = vec![cost];
    let mut record = Record {
        workload: kind.name().to_string(),
        seed: run.seed,
        traced: run.traced,
        ..Record::default()
    };
    let count = |record: &mut Record, tally: &Tally| {
        record.attempted += tally.attempted;
        record.failed += tally.failed;
        if record.first_failure.is_none() {
            record.first_failure.clone_from(&tally.first_failure);
        }
    };

    if !run.traced {
        let one_setup = Duration::from_secs_f64(cost.setup_s);
        let measured = measure(&fixture, run, &stream, &refs, scratch, one_setup)?;
        fixture.close();
        count(&mut record, &measured.tally);
        costs.extend(measured.rehearsed);
        record.samples = measured.tally.samples.len() as u64;
        let t = summarise(&measured.tally.samples, kind.block(), measured.driven);
        let setup_s = quickest(&costs).setup_s;
        let values = [t.p50_ms, t.p90_ms, t.per_s, measured.peak_rss_mb, setup_s];
        record.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured {
                name: m.name,
                value,
                unit: m.unit,
            })
            .collect();
        return Ok(record);
    }

    let mut cursors = cursors(kind);
    let warm = drive(&fixture, &stream, &refs, &mut cursors, run.warmup());
    count(&mut record, &warm);
    // Traced: a short untraced window first, for the overhead of tracing
    // and the whole-window figures; then the same stream on a fixture
    // whose wrappers are timed.
    let plain_window = window.mul_f64(0.3);
    let plain = drive(&fixture, &stream, &refs, &mut cursors, plain_window);
    count(&mut record, &plain);
    fixture.close();
    let untraced = summarise(&plain.samples, kind.block(), plain_window);
    let log = Arc::new(SpanLog::new());
    let (fixture, cost) = Fixture::build(kind, run.seed, &stream, scratch, Some(&log))?;
    costs.push(cost);
    let mut traced = layers::traced_run(
        &fixture,
        &stream,
        &refs,
        &log,
        run.warmup(),
        window.mul_f64(0.7),
    );
    fixture.close();
    traced
        .values
        .insert("mediator.new_ms", quickest(&costs).mediator_new_ms);
    traced
        .values
        .insert("bench.window_p50_ms", untraced.window_p50_ms);
    traced
        .values
        .insert("bench.window_p90_ms", untraced.window_p90_ms);
    traced
        .values
        .insert("bench.window_per_s", untraced.window_per_s);
    if untraced.window_p50_ms > 0.0 {
        let overhead = (traced.p50_ms - untraced.window_p50_ms) / untraced.window_p50_ms * 100.0;
        traced.values.insert("bench.trace_overhead_pct", overhead);
    }
    count(&mut record, &traced.tally);
    record.samples = traced.tally.samples.len() as u64;
    record.not_applicable = traced.not_applicable;
    record.metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            value: traced.values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect();
    let spans_path = scratch_root().join(format!("spans-{}-{}.csv", kind.name(), run.seed));
    trace::write_spans(&spans_path, &traced.spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "{} spans written to {}; mean self time per query by layer:",
        traced.spans.len(),
        spans_path.display()
    );
    for (layer, ms) in &traced.self_time {
        println!("  {layer:<38} {ms:>10.4} ms");
    }
    Ok(record)
}

/// `perf run` with one workload and one repeat: measure here, print the
/// table and, last, the line the driver reads.
fn run_here(kind: Kind, run: &RunArgs) -> Result<bool, String> {
    let scratch = scratch_root().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = run_workload(kind, run, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let record = result?;
    let out = run.out.clone().unwrap_or_else(|| {
        let mode = if run.traced { "traced" } else { "untraced" };
        scratch_root().join(format!("result-{}-{}-{mode}.json", kind.name(), run.seed))
    });
    report::write_results(&out, &header(run), vec![record.to_value()])?;
    print!("{}", record.render());
    println!("result written to {}", out.display());
    println!("{}", record.driver_line());
    Ok(record.correct())
}

/// `perf run` over several workloads or repeats: each run in a process of
/// its own, so that peak memory and learned state belong to one workload.
fn run_children(run: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let kinds: Vec<Kind> = run.workload.map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]);
    let parts = scratch_root().join(format!("parts-{}", std::process::id()));
    std::fs::create_dir_all(&parts).map_err(|e| format!("{}: {e}", parts.display()))?;
    let mut all_correct = true;
    let mut runs = Vec::new();
    for kind in kinds {
        for r in 0..run.repeat {
            let part = parts.join(format!("{}-{r}.json", kind.name()));
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", kind.name()])
                .args(["--seed", &(run.seed + r).to_string()])
                .args(["--seconds", &run.seconds.to_string()])
                .args(["--trace", if run.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if run.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let v: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            runs.extend(
                v.get("runs")
                    .and_then(serde_json::Value::as_array)
                    .unwrap_or(&[])
                    .to_vec(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&parts);
    let out = run
        .out
        .clone()
        .unwrap_or_else(|| scratch_root().join("results.json"));
    println!("{} runs written to {}", runs.len(), out.display());
    report::write_results(&out, &header(run), runs)?;
    Ok(all_correct)
}

const USAGE: &str = "usage:
  perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--repeat R] [--smoke] [--out PATH]
  perf list
  perf agree A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => RunArgs::parse(&args[1..]).and_then(|run| match run.workload {
            Some(kind) if run.repeat == 1 => run_here(kind, &run),
            _ => run_children(&run),
        }),
        Some("list") => {
            print!("{}", catalog::list());
            Ok(true)
        }
        Some("agree") if args.len() == 3 => report::agree(Path::new(&args[1]), Path::new(&args[2]))
            .map(|(table, violated)| {
                print!("{table}");
                !violated
            }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<RunArgs, String> {
        RunArgs::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn run_arguments_parse_as_the_driver_sends_them() {
        let run = args(&[
            "--workload",
            "scan_join",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(run.workload, Some(Kind::ScanJoin));
        assert_eq!((run.seed, run.seconds, run.traced), (9, 12.0, true));
        assert!(!args(&["--trace", "0"]).unwrap().traced);
        assert!(args(&["--traced"]).unwrap().traced);
        assert_eq!(args(&["--smoke"]).unwrap().seconds, 1.0);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// Every workload end to end, untraced and traced, on a 1 s window:
    /// answers are checked, every metric is present, nothing is left
    /// behind.
    #[test]
    fn smoke_runs_every_workload() {
        for kind in Kind::ALL {
            for traced in [false, true] {
                let run = RunArgs {
                    traced,
                    ..args(&["--smoke", "--seed", "5"]).unwrap()
                };
                let scratch =
                    scratch_root().join(format!("test-{}-{}", std::process::id(), kind.name()));
                std::fs::create_dir_all(&scratch).unwrap();
                let record = run_workload(kind, &run, &scratch).unwrap();
                assert!(record.correct(), "{kind:?}: {:?}", record.first_failure);
                let expected = if traced { PER_LAYER } else { END_TO_END };
                let names: Vec<_> = record.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, expected.iter().map(|m| m.name).collect::<Vec<_>>());
                assert!(
                    record.metrics.iter().all(|m| m.value.is_finite()),
                    "{kind:?}"
                );
                if !traced {
                    assert!(
                        record.metrics.iter().all(|m| m.value > 0.0),
                        "{kind:?}: {:?}",
                        record.metrics
                    );
                }
                assert!(
                    !scratch.join("warm").exists(),
                    "{kind:?} left its warm tier behind"
                );
                std::fs::remove_dir_all(&scratch).unwrap();
            }
        }
    }
}
