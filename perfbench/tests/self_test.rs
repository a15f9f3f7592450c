//! The negative self-test: a corrupted reference must make the
//! benchmark report failed operations and exit non-zero.

use std::process::Command;

#[test]
fn a_corrupted_reference_fails_the_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test");
    std::fs::create_dir_all(&dir).expect("create the test's working dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "stream-store",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--corrupt-reference")
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        last.starts_with("{\"correct\": false, "),
        "result line: {last}"
    );
    assert!(!last.contains("\"failed\": 0,"), "result line: {last}");
}
