//! Command-line contract of the `pitot_repro` binary.

use std::process::Command;

/// An unknown command — alone or after a valid one — exits 2 before the
/// harness is built.
#[test]
fn unknown_command_exits_nonzero_before_building_the_harness() {
    for args in [&["bogus"][..], &["fig1", "bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_pitot_repro"))
            .args(args)
            .output()
            .expect("run pitot_repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command `bogus`"), "{stderr}");
        assert!(!stderr.contains("building harness"), "{stderr}");
    }
}
