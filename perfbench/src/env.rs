//! The environment stamp printed with every result, so that a number is
//! never read as coming from more cores, another CPU or another
//! filesystem than it was measured on.

use std::path::Path;
use std::process::Command;

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
    /// Filesystem type of the directory checkpoints are written to.
    pub checkpoint_fs: String,
}

impl EnvStamp {
    /// Collects the stamp; `checkpoint_dir` must exist.
    pub fn collect(seed: u64, checkpoint_dir: &Path) -> EnvStamp {
        EnvStamp {
            nproc: nproc(),
            cpu: cpu_model(),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            rustc: command_output("rustc", &["--version"]),
            commit: command_output("git", &["rev-parse", "--short=12", "HEAD"]),
            seed,
            checkpoint_fs: filesystem_of(checkpoint_dir),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
             \"seed\":{},\"checkpoint_fs\":\"{}\",\"fsync\":\"{}\"}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.kernel),
            escape(&self.rustc),
            escape(&self.commit),
            self.seed,
            escape(&self.checkpoint_fs),
            if self.checkpoint_fs == "tmpfs" {
                "unmeasured (tmpfs)"
            } else {
                "included"
            },
        )
    }
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails (the benchmark's checkout need not be a git
/// repository).
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`
/// (longest matching mount point wins).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = fields.next()?;
            let fstype = fields.next()?;
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_parallelism_seed_and_filesystem() {
        let stamp = EnvStamp::collect(42, Path::new("."));
        assert!(stamp.nproc >= 1);
        let json = stamp.to_json();
        assert!(json.contains("\"seed\":42"));
        assert!(json.contains(&format!("\"nproc\":{}", stamp.nproc)));
        assert_ne!(stamp.checkpoint_fs, "", "filesystem type is always named");
    }
}
