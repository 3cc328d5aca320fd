//! Artifacts name the checkout the `experiments` binary was built from,
//! wherever the binary runs.

use std::path::PathBuf;
use std::process::Command;

/// What `git describe` reports for this crate's checkout, or `"unknown"`.
fn checkout_revision() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[test]
fn artifact_revision_names_the_build_checkout_when_run_elsewhere() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ansmet-git-revision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a directory outside the checkout");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args(["--quick", "--json", "timing.json", "table2"])
        .output()
        .expect("run experiments");
    let body = std::fs::read_to_string(dir.join("timing.json"));
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    assert!(out.status.success(), "experiments failed: {out:?}");
    let body = body.expect("timing report written");
    let expected = format!("\"git_revision\": \"{}\"", checkout_revision());
    assert!(
        body.contains(&expected),
        "expected {expected} in the timing report:\n{body}"
    );
}
