//! Process and machine facts for the report: CPU time and peak memory (from
//! `/proc/self`), core count, CPU model, file-system type, and which source
//! tree was measured.

use std::fs;
use std::path::Path;

/// Process `(user, system)` CPU seconds so far, all threads included.
pub fn cpu_times() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name; the unit is the kernel's fixed USER_HZ of 100.
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| rest.split_whitespace().nth(i).and_then(|v| v.parse::<f64>().ok());
    (field(11).unwrap_or(0.0) / 100.0, field(12).unwrap_or(0.0) / 100.0)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `path` (e.g. `ext4`, `tmpfs`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = fs::canonicalize(path).or_else(|_| std::env::current_dir()) else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

pub fn unix_nanos() -> u128 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

/// The commit checked out in the working directory, read from `.git`
/// directly; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(refname)) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and contents of the measured program's sources
/// (`crates/`, `vendor/` and the root manifests), so runs of a checkout
/// without git history still name the code they measured.
pub fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One JSON object of string fields.
pub fn meta_json(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", serde_json::to_string(v).expect("string serializes")))
        .collect();
    format!("{{{}}}", body.join(", "))
}
