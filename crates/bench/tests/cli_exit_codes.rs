//! The unified exit-code contract, exercised through the real
//! binaries: usage errors are 2 everywhere, clean runs are 0, and the
//! `repair` scanner degrades exactly as documented. (The planted
//! failures — `fuzz --inject miscompile:0` exiting 1, a `--verify`
//! miscompile exiting 4 — run in CI; these tests stay fast.)

use std::path::PathBuf;
use std::process::Command;

use geyser_bench::exit_codes;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geyser-cli-exit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fuzz_rejects_unknown_flags_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .arg("--definitely-not-a-flag")
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn fuzz_rejects_malformed_inject_specs_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(["--inject", "no-such-fault:whatever"])
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn malformed_values_are_usage_errors_not_panics() {
    for (args, flag) in [
        (&["--seed", "abc"][..], "--seed"),
        (&["--fast", "--json"][..], "--json"),
        (&["--techniques", "nope"][..], "--techniques"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fuzz"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(exit_codes::USAGE),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.starts_with(&format!("error: {flag}: ")) && !stderr.contains("panicked"),
            "{args:?}: one usage line expected, got: {stderr}"
        );
    }
}

#[test]
fn fuzz_with_zero_cases_exits_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(["--fast", "--cases", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 case(s), 0 failure(s)"),
        "summary line expected, got: {stdout}"
    );
}

#[test]
fn repair_rejects_unknown_flags_and_missing_stores_with_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_repair"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));

    let status = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", "/definitely/not/a/store"])
        .output()
        .unwrap();
    assert_eq!(status.status.code(), Some(exit_codes::USAGE));
}

#[test]
fn repair_scans_quarantines_and_prunes() {
    let dir = tempdir("repair");
    // A committed record, then torn in half: repair must quarantine
    // it (exit 0 — the store is healthy again) and report the action.
    let victim = dir.join("entry.json");
    geyser::store::write_record_atomic(&victim, "{\"k\":1}").unwrap();
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() / 2]).unwrap();
    std::fs::write(dir.join("stray.json.tmp"), "half-written").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("path=") && stderr.contains("digest="),
        "structured corruption warning expected, got: {stderr}"
    );
    assert!(!victim.exists(), "corrupt record must be moved aside");
    let sidecars = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
        .count();
    assert_eq!(sidecars, 1);

    // Second pass with --prune reclaims the sidecar and the stray tmp.
    let out = Command::new(env!("CARGO_BIN_EXE_repair"))
        .args(["--store", dir.to_str().unwrap(), "--prune"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let survivors = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(survivors, 0, "prune must reclaim sidecars and tmp files");
    let _ = std::fs::remove_dir_all(&dir);
}
