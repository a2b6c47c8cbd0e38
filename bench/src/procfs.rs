//! The two `/proc` readings the benchmark takes from outside the
//! server: CPU time of reaped children and the peak resident set.

use std::fs;

/// The state letter (field 3) of a `/proc/<pid>/stat` line; `Z` is a
/// process that has exited and waits to be reaped. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted
/// from the *last* `)`.
pub fn parse_state(stat: &str) -> Option<char> {
    stat[stat.rfind(')')? + 1..]
        .split_ascii_whitespace()
        .next()?
        .chars()
        .next()
}

/// Nanoseconds on a CPU: the first field of `/proc/<pid>/schedstat`,
/// the scheduler's own exact count for the process's main thread.
pub fn parse_on_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// The `Threads:` count out of a `/proc/<pid>/status` text.
pub fn parse_threads(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Whether `pid` has exited and waits to be reaped (or is gone).
pub fn is_zombie(pid: u32) -> bool {
    fs::read_to_string(format!("/proc/{pid}/stat")).map_or(true, |s| parse_state(&s) == Some('Z'))
}

/// Seconds `pid`'s main thread has spent on a CPU; still readable
/// while the process is a zombie.
pub fn on_cpu_s(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/schedstat")).ok()?;
    parse_on_cpu_ns(&text).map(|ns| ns as f64 * 1e-9)
}

/// Peak resident set (MB) and thread count of a live process.
pub fn rss_and_threads(pid: u32) -> Option<(f64, u64)> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some((
        parse_vm_hwm_kb(&status)? as f64 / 1024.0,
        parse_threads(&status)?,
    ))
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mounts` (longest mount-point prefix wins).
pub fn fs_type_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let stat = "4242 (ic-e2e (x) y) Z 1 4242 4242 0 -1 4194304 100 200 0 0 11 22 33 44";
        assert_eq!(parse_state(stat), Some('Z'));
        assert_eq!(parse_state("7 (sleep) S 1 7 7"), Some('S'));
        assert_eq!(parse_state("garbage"), None);
    }

    #[test]
    fn schedstat_and_status_fields_parse() {
        assert_eq!(parse_on_cpu_ns("79428094 196094 5\n"), Some(79_428_094));
        assert_eq!(parse_on_cpu_ns(""), None);
        let status =
            "Name:\tic-prio\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_threads(status), Some(1));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        let me = std::process::id();
        assert!(!is_zombie(me));
        assert!(on_cpu_s(me).unwrap() > 0.0);
        let (rss_mb, threads) = rss_and_threads(me).unwrap();
        assert!(rss_mb > 0.0 && threads >= 1);
    }
}
