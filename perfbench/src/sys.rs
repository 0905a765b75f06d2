//! Process facts read from `/proc`: peak RSS and CPU time.

/// Linux reports `utime`/`stime` in USER_HZ ticks, fixed at 100 by the ABI.
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set size (`VmHWM`) in MiB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by `pid` (all threads),
/// or by this process.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Cores this process may run on (`nproc`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host CPU time stolen from this machine's virtual CPUs so far, in
/// USER_HZ ticks summed over all CPUs (`/proc/stat`). While it grows, the
/// hypervisor is running someone else on a CPU this machine wanted.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0)
}
