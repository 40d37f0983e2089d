//! Host facts and process gauges: resident memory, free disk, run metadata.

use std::path::Path;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Bytes available to an unprivileged writer on the file system holding
/// `dir`, or `None` when `statvfs(3)` fails.
pub fn free_bytes(dir: &Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statvfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    }
    let path = std::ffi::CString::new(dir.as_os_str().as_bytes()).ok()?;
    // `struct statvfs` on 64-bit Linux is eleven 8-byte fields followed by
    // spare ints (112 bytes); the buffer is oversized to be safe.
    let mut buf = [0u64; 32];
    // SAFETY: `path` is a valid NUL-terminated string and `buf` is a
    // writable, 8-byte aligned region larger than `struct statvfs`.
    let rc = unsafe { statvfs(path.as_ptr(), buf.as_mut_ptr()) };
    // Fields 1 and 4 are f_frsize and f_bavail.
    (rc == 0).then(|| buf[1].saturating_mul(buf[4]))
}

/// The commit under test: `git rev-parse HEAD` in the working directory,
/// else `unknown`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_read_something() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        assert!(free_bytes(Path::new(".")).is_some_and(|b| b > 0));
        assert!(free_bytes(Path::new("/definitely/not/here")).is_none());
    }
}
