//! The experiments binary must regenerate every artifact successfully —
//! this is the machine check that the whole reproduction index stays green.

use std::process::Command;

#[test]
fn all_experiments_pass() {
    // A fresh working directory: the binary reproduces and asserts, it
    // leaves nothing behind (numbers live in BENCHMARK.json's harness).
    let cwd = std::env::temp_dir().join(format!("medmaker-experiments-{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("all")
        .current_dir(&cwd)
        .output()
        .expect("experiments binary runs");
    let left_behind: Vec<_> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&cwd).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        left_behind.is_empty(),
        "experiments wrote files into its working directory: {left_behind:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("wrote "), "a report writer is back");
    // One [ok] per experiment (fig23 prints its correction note inline).
    let ok_count = stdout.matches("[ok]").count();
    assert!(
        ok_count >= 20,
        "expected >= 20 [ok] markers, got {ok_count}"
    );
    // Spot-check headline artifacts.
    for frag in [
        "experiment: fig24",
        "experiment: theta1",
        "experiment: fig36",
        "experiment: lorel",
        "experiment: cache",
        "experiment: cache_tiered",
        "'Joe Chung'",
        "'Nick Naive'",
    ] {
        assert!(stdout.contains(frag), "missing {frag}");
    }
}

#[test]
fn unknown_experiment_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("frobnicate")
        .output()
        .expect("experiments binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("available:"));
}
