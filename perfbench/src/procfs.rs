//! CPU time and peak memory of the processes under test.
//!
//! A live process (the daemon) is read from `/proc/<pid>/stat` and
//! `/proc/<pid>/status`. A process that has already exited (`gaps
//! batch`) can no longer be read there, so batch figures come from
//! `getrusage(RUSAGE_CHILDREN)`, which the kernel fills in for every
//! child this process has waited for.

use std::fs;

/// Linux `RUSAGE_CHILDREN`.
const RUSAGE_CHILDREN: i32 = -1;

/// Linux `_SC_CLK_TCK`.
const SC_CLK_TCK: i32 = 2;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// CPU time and peak resident set of all waited-for children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChildUsage {
    /// User plus system CPU time, in microseconds (cumulative).
    pub cpu_us: f64,
    /// Largest peak RSS of any waited-for child, in MiB.
    pub max_rss_mb: f64,
}

/// Read `getrusage(RUSAGE_CHILDREN)`.
pub fn children() -> Result<ChildUsage, String> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage(RUSAGE_CHILDREN) failed".to_string());
    }
    let tv_us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    Ok(ChildUsage {
        cpu_us: tv_us(usage.utime) + tv_us(usage.stime),
        max_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Clock ticks per second of `/proc` CPU times.
fn ticks_per_sec() -> f64 {
    // SAFETY: sysconf takes a plain integer and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User plus system CPU time of a live process, in microseconds.
pub fn cpu_us(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_stat_ticks(&text)
        .map(|ticks| ticks as f64 * 1e6 / ticks_per_sec())
        .ok_or_else(|| format!("malformed {path}"))
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces, so fields are counted after its `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_vm_hwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let stat = "42 (gaps serve) S 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 7 0";
        assert_eq!(parse_stat_ticks(stat), Some(281));
        let status = "Name:\tgaps\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        let own = cpu_us(std::process::id()).expect("own stat");
        assert!(own >= 0.0);
        assert!(peak_rss_mb(std::process::id()).expect("own status") > 0.0);
        assert!(children().is_ok());
    }
}
