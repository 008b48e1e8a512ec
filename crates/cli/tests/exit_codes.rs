//! How the `medmaker` binary ends: `--help` is not an error, a reader
//! that closes the pipe early is not an error, a bad flag still is.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn medmaker() -> Command {
    Command::new(env!("CARGO_BIN_EXE_medmaker"))
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = medmaker().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: medmaker "));
        assert!(out.stderr.is_empty(), "{flag}: stderr must stay empty");
    }
}

#[test]
fn closed_stdout_ends_quietly_with_status_zero() {
    let demo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let mut child = medmaker()
        .arg("--spec")
        .arg(demo.join("med.msl"))
        .arg("--oem")
        .arg(format!("whois={}", demo.join("whois.oem").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("employee.csv").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("student.csv").display()))
        .arg("P :- P:<cs_person {}>@med")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // The reader goes away before the answer is written, as `| head -1`
    // does after its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("Broken pipe"), "stderr: {stderr}");
}

#[test]
fn the_lint_subcommand_points_at_check() {
    for args in [&["lint"][..], &["lint", "demo/med.msl", "--json"]] {
        let out = medmaker().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("medmaker check"), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("more than one query"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = medmaker()
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option '--no-such-flag'"));
}

#[test]
fn a_single_dash_argument_is_an_unknown_option_not_a_query() {
    let demo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let out = medmaker()
        .arg("--spec")
        .arg(demo.join("med.msl"))
        .arg("-v")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option '-v'"));
}
