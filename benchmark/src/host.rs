//! Facts about the host a run was measured on, printed with every run so a
//! number is never read without them.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores the scheduler offers this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type holding `path` (longest mount-point prefix in
/// `/proc/mounts`), e.g. `ext4` or `tmpfs` — durable-write latency is this
/// filesystem's, not a device specification.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount_point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_available_on_linux() {
        assert!(cores() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
            assert_ne!(filesystem_of(Path::new("/")), "");
        }
    }
}
