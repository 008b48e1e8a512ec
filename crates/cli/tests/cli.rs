//! End-to-end tests of the `medmaker` binary against the demo files.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn demo_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../demo")
}

fn base_cmd() -> Command {
    with_demo_sources(&[])
}

/// `medmaker ARGS…` over the demo spec and sources; ARGS may name a
/// subcommand, which must come first.
fn with_demo_sources(args: &[&str]) -> Command {
    let demo = demo_dir();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_medmaker"));
    cmd.args(args)
        .arg("--spec")
        .arg(demo.join("med.msl"))
        .arg("--oem")
        .arg(format!("whois={}", demo.join("whois.oem").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("employee.csv").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("student.csv").display()));
    cmd
}

#[test]
fn one_shot_query_reproduces_figure_2_4() {
    let out = base_cmd()
        .arg("JC :- JC:<cs_person {<name 'Joe Chung'>}>@med")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for frag in [
        "'Joe Chung'",
        "'employee'",
        "'chung@cs'",
        "'professor'",
        "'John Hennessy'",
        ";; 1 object(s)",
    ] {
        assert!(stdout.contains(frag), "missing {frag} in {stdout}");
    }
}

#[test]
fn explain_mode_prints_plan() {
    let out = with_demo_sources(&["explain"])
        .arg("--minimal")
        .arg("S :- S:<cs_person {<year 3>}>@med")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Logical datamerge program (2 rules)"),
        "{stdout}"
    );
    assert!(stdout.contains("[query]"), "{stdout}");
    assert!(stdout.contains("=== result objects ==="), "{stdout}");
    assert!(stdout.contains("'Nick Naive'"), "{stdout}");
}

#[test]
fn repl_round_trip() {
    use std::io::Write;
    let mut child = base_cmd()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b".sources\nP :- P:<cs_person {}>@med\n.quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("@whois"), "{stdout}");
    assert!(stdout.contains(";; 2 object(s)"), "{stdout}");
}

#[test]
fn check_demo_spec_is_clean() {
    let demo = demo_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_medmaker"))
        .arg("check")
        .arg(demo.join("med.msl"))
        .arg("--oem")
        .arg(format!("whois={}", demo.join("whois.oem").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("employee.csv").display()))
        .arg("--csv")
        .arg(format!("cs={}", demo.join("student.csv").display()))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
    assert!(stdout.contains("view 'cs_person'"), "{stdout}");
    assert!(stdout.contains("answerable for"), "{stdout}");
}

#[test]
fn check_broken_spec_exits_two_with_json_findings() {
    let dir = std::env::temp_dir().join(format!("medmaker-check-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("bad.msl");
    // `name` holds strings in whois.oem; matching 5 is provably empty.
    std::fs::write(&spec, "<v {<n N>}> :- <person {<name 5> <name N>}>@whois\n").unwrap();
    let demo = demo_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_medmaker"))
        .arg("check")
        .arg(&spec)
        .arg("--json")
        .arg("--oem")
        .arg(format!("whois={}", demo.join("whois.oem").display()))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"E301\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_medmaker"))
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_file_reports_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_medmaker"))
        .arg("--spec")
        .arg("/nonexistent/spec.msl")
        .arg("X :- X:<a {}>@m")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn lorel_flag_translates_and_runs() {
    let out = base_cmd()
        .arg("--lorel")
        .arg("select P.name from cs_person P where P.year >= 3")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(";; MSL:"), "{stdout}");
    assert!(stdout.contains("'Nick Naive'"), "{stdout}");
    assert!(stdout.contains(";; 1 object(s)"), "{stdout}");
}
