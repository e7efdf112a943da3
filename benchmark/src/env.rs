//! The environment block every suite result carries.

use std::process::Command;

pub struct Env {
    pub nproc: usize,
    pub cpu_model: String,
    /// Size of the last-level cache, 0 when sysfs does not say.
    pub llc_bytes: u64,
    pub simd_tier: &'static str,
    pub rustc: String,
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        if let (Ok(level), Ok(n)) = (level.trim().parse::<u32>(), digits.parse::<u64>()) {
            best = best.max((level, n * scale));
        }
    }
    best.1
}

impl Env {
    pub fn capture() -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|c| {
                c.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            llc_bytes: llc_bytes(),
            simd_tier: versa_kernels::simd::active_tier().name(),
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The block's JSON members (no braces), for embedding.
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\": {}, \"cpu_model\": \"{}\", \"llc_bytes\": {}, \"simd_tier\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], " "),
            self.llc_bytes,
            self.simd_tier,
            self.rustc.replace(['"', '\\'], " "),
            self.git_rev
        )
    }
}
