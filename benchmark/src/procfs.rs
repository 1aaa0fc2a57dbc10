//! What the ledger reads from `/proc`: the process's peak resident set and
//! the time the hypervisor took the CPUs away from this guest.

/// `/proc/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
pub const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// The `steal` column of the aggregate `cpu` line of a `/proc/stat` text:
/// clock ticks, summed over CPUs, during which a virtual CPU was ready to
/// run but the host ran something else.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

pub fn peak_rss_mib() -> Result<f64, String> {
    parse_vm_hwm_mib(&read("/proc/self/status")?)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn steal_ticks() -> Result<u64, String> {
    parse_steal_ticks(&read("/proc/stat")?)
        .ok_or_else(|| "no steal column in /proc/stat".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t   52224 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(51.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tledger\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  377057 0 42270 548502 2352 0 12177 19023 0 0\n\
                    cpu0 167131 0 21507 294028 1938 0 6025 9431 0 0\nintr 1 2\n";
        assert_eq!(parse_steal_ticks(stat), Some(19023));
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
    }

    #[test]
    fn this_machine_reports_both() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        steal_ticks().unwrap();
    }
}
