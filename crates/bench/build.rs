//! Captures the rustc version at compile time, so `exp_bench_record`
//! can write the toolchain that produced its numbers into both BENCH
//! JSONs.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown-rustc".into());
    println!("cargo:rustc-env=BSNN_RUSTC_VERSION={version}");
    // A toolchain change rebuilds everything anyway; only an edit here
    // needs a rerun.
    println!("cargo:rerun-if-changed=build.rs");
}
