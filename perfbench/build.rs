//! Records the compiler that built the benchmark, for the provenance
//! block of every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let described = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|text| {
            let field = |key: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(key))
                    .unwrap_or("unknown")
                    .trim()
                    .to_string()
            };
            format!("{} (commit {})", field("release:"), field("commit-hash:"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={described}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
