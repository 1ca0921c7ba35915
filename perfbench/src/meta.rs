//! Run metadata: source identity, toolchain, machine.

use std::path::{Path, PathBuf};

use crate::stats;

/// Collects the metadata line stamped on every result. Fails when the
/// working directory does not hold the repository's sources, so the
/// benchmark never reports on a tree it cannot identify.
pub fn collect() -> Result<String, String> {
    let fingerprint = source_fingerprint()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(format!(
        "commit={} source_fnv64={fingerprint:016x} rustc=\"{}\" nproc={cores} cpu=\"{}\"",
        commit(),
        rustc_version(),
        cpu_model()
    ))
}

/// The checked-out commit when the tree is a git work tree, else `none`.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|id| id.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved:{reference}")),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and bytes of every file of the program's sources
/// (`Cargo.toml`, `Cargo.lock`, `crates/`, `compat/`), in path order: the
/// code version even where the checkout is not a git repository.
fn source_fingerprint() -> Result<u64, String> {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "compat"] {
        let path = PathBuf::from(root);
        if !path.exists() {
            return Err(format!(
                "{root} not found: run from the root of the repository checkout"
            ));
        }
        walk(&path, &mut files)?;
    }
    files.sort();
    let mut hash = stats::FNV_OFFSET;
    for file in &files {
        hash = stats::fnv1a(hash, file.to_string_lossy().as_bytes());
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        hash = stats::fnv1a(hash, &bytes);
    }
    Ok(hash)
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
        let child = entry.path();
        // Build output never belongs to the sources.
        if child.file_name().is_some_and(|name| name == "target") {
            continue;
        }
        walk(&child, out)?;
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time the hypervisor took this machine's CPUs away (`steal` in
/// `/proc/stat`), summed over CPUs, in seconds since boot; `NaN` where
/// the kernel does not report it.
pub fn cpu_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let fields: Vec<&str> = stat.lines().next()?.split_whitespace().collect();
            fields.get(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}
