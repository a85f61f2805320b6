//! The `figures` binary checks every experiment name before it runs
//! anything: one unknown name is a usage error that lists the valid names.

use std::process::Command;

const NAMES: [&str; 10] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig8loss",
    "ablations",
    "hybrid",
];

#[test]
fn unknown_name_lists_every_valid_name_and_runs_nothing() {
    // The second case names a real figure too: it must not start either.
    for args in [&["bogus"][..], &["fig2", "bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail: {stderr}");
        let listed: Vec<&str> = stderr
            .split("expected any of: ")
            .nth(1)
            .unwrap_or_else(|| panic!("no name list in: {stderr}"))
            .trim()
            .split(", ")
            .collect();
        assert_eq!(listed, NAMES);
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert!(!stderr.contains("finished in"), "{args:?} ran: {stderr}");
    }
}
