//! The driver binaries handle bad command lines cleanly: `--help` prints
//! the usage and exits 0; an unknown flag, an unknown benchmark or
//! experiment id, a missing or unparsable value, or an unknown
//! `XBOUND_SIM_ENGINE` prints one line to stderr and exits 2. None of
//! them may panic.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (i32, String, String) {
    run_env(exe, args, None)
}

fn run_env(exe: &str, args: &[&str], engine: Option<&str>) -> (i32, String, String) {
    let mut cmd = Command::new(exe);
    cmd.args(args).env_remove("XBOUND_SIM_ENGINE");
    if let Some(e) = engine {
        cmd.env("XBOUND_SIM_ENGINE", e);
    }
    let out = cmd.output().expect("driver runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn check(exe: &str, name: &str, bad: &[&[&str]]) {
    for help in ["--help", "-h"] {
        let (code, stdout, stderr) = run(exe, &[help]);
        assert_eq!(code, 0, "{name} {help}: {stderr}");
        assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    for args in bad {
        let (code, stdout, stderr) = run(exe, args);
        assert_eq!(code, 2, "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked") && !stdout.contains("panicked"));
        assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("{name}: ")), "{stderr}");
    }
    // A removed or misspelled engine is rejected before any work starts,
    // naming the accepted values.
    for engine in ["compiled", "bogus"] {
        let (code, stdout, stderr) = run_env(exe, &[], Some(engine));
        assert_eq!(code, 2, "{name} XBOUND_SIM_ENGINE={engine}: {stderr}");
        assert!(!stderr.contains("panicked") && !stdout.contains("panicked"));
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: ")) && stderr.contains("levelized"),
            "{stderr}"
        );
    }
}

#[test]
fn suite_summary_rejects_bad_arguments_cleanly() {
    check(
        env!("CARGO_BIN_EXE_suite_summary"),
        "suite_summary",
        &[
            &["--bogus"],
            &["nosuchbench"],
            &["--threads"],
            &["--threads", "many"],
            &["--validate", "-1"],
            &["--bounds"],
            &["--sweep", "/dev/null", "--incremental"],
        ],
    );
}

#[test]
fn incremental_replay_rejects_bad_arguments_cleanly() {
    check(
        env!("CARGO_BIN_EXE_incremental_replay"),
        "incremental_replay",
        &[&["--bogus"], &["nosuchbench"], &["--json"]],
    );
}

#[test]
fn experiments_rejects_bad_arguments_cleanly() {
    check(
        env!("CARGO_BIN_EXE_experiments"),
        "experiments",
        &[
            &["--bogus"],
            &["nosuch"],
            &["--ga-pop"],
            &["--ga-pop", "many"],
            &["--profile-runs", "-1"],
            &["--lanes"],
            &["tab1_1", "--explore-lanes", "8"],
        ],
    );
}
