//! The driver binaries handle bad command lines cleanly: `--help` prints
//! the usage and exits 0; an unknown flag, an unknown benchmark, or a
//! missing or unparsable value prints one line to stderr and exits 2.
//! None of them may panic.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(exe).args(args).output().expect("driver runs");
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
