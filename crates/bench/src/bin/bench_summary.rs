//! Merge every per-bench JSON artifact under `target/bench-results/` into
//! one `BENCH_RESULTS.json`, the machine-readable perf summary CI uploads
//! as a build artifact (run it after `cargo bench`):
//!
//! ```text
//! cargo run -p dinomo-bench --release --bin bench_summary
//! ```
//!
//! Each bench writes its medians to
//! `target/bench-results/<name>.json`; this merges them textually — every
//! input is already valid JSON, so the output is
//! `{"<name>": <contents>, ...}` plus a small provenance header — without
//! needing a dynamic JSON value type. Exits non-zero if no artifacts are
//! found (CI would otherwise upload an empty summary and call it a
//! trajectory).

use dinomo_bench::harness::bench_results_dir;

fn main() {
    let dir = bench_results_dir();
    let mut entries: Vec<(String, String)> = Vec::new();
    let listing = match std::fs::read_dir(&dir) {
        Ok(listing) => listing,
        Err(e) => {
            eprintln!(
                "bench_summary: cannot read {} ({e}); run `cargo bench` first",
                dir.display()
            );
            std::process::exit(1);
        }
    };
    for entry in listing.flatten() {
        let path = entry.path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if path.extension().and_then(|e| e.to_str()) != Some("json") || stem == "BENCH_RESULTS" {
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(contents) => entries.push((stem.to_string(), contents)),
            Err(e) => eprintln!("bench_summary: skipping {}: {e}", path.display()),
        }
    }
    if entries.is_empty() {
        eprintln!(
            "bench_summary: no bench artifacts in {}; run `cargo bench` first",
            dir.display()
        );
        std::process::exit(1);
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from("{\n");
    // Provenance: the commit CI measured, when available.
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        out.push_str(&format!("  \"commit\": \"{}\",\n", sha.escape_default()));
    }
    out.push_str("  \"benches\": {\n");
    for (i, (name, contents)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name.escape_default(),
            contents.trim(),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");

    let path = dir.join("BENCH_RESULTS.json");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("bench_summary: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "[artifact] {} ({} bench{})",
        path.display(),
        entries.len(),
        if entries.len() == 1 { "" } else { "es" }
    );
}
