//! What the host is: recorded beside every result so a number is never
//! read without the machine it was measured on.

use std::process::Command;

/// Hardware threads the host reports (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The shard count a run may use and label itself with: the request,
/// capped at the hardware threads actually present.
pub fn usable_shards(requested: usize) -> usize {
    requested.clamp(1, nproc())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Host metadata recorded with every result block.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` when the working directory is
    /// not the root of a git work tree.
    pub commit: String,
}

impl Host {
    /// Probe the host.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            // Only a checkout that is itself a git work tree has a commit;
            // never read a parent directory's.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            snic_serve::protocol::esc(&self.cpu_model),
            snic_serve::protocol::esc(&self.rustc),
            snic_serve::protocol::esc(&self.commit),
        )
    }
}

/// A `kB` field of `/proc/<pid>/status` in MiB, e.g. `VmHWM` (peak
/// resident set) or `VmRSS`; `pid` is a number or `self`.
pub fn proc_status_mib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_never_exceed_hardware_threads() {
        let n = nproc();
        assert_eq!(usable_shards(0), 1);
        assert_eq!(usable_shards(1), 1);
        assert!(usable_shards(2) <= n);
        assert_eq!(usable_shards(n + 7), n);
    }

    #[test]
    fn own_rss_is_readable_and_positive() {
        let hwm = proc_status_mib("self", "VmHWM:").expect("linux /proc");
        let rss = proc_status_mib("self", "VmRSS:").expect("linux /proc");
        // The kernel batches these counters, so the peak may trail the
        // current value by a little; both must simply be there.
        assert!(hwm > 0.0 && rss > 0.0);
    }
}
