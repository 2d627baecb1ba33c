//! Operating-system plumbing: spawning and reaping program processes, CPU
//! and memory accounting from `/proc` and `getrusage`, and host provenance.
//!
//! Linux only (x86_64/aarch64 `struct rusage` layout); the benchmark measures
//! the host it runs on.

use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sprint_jobd::json::Json;
use sprint_jobd::Client;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn sync();
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;
const SIGKILL: i32 = 9;

/// Write back every dirty page before a timed phase, so the program's own
/// fsyncs do not pay for files the benchmark just wrote.
pub fn flush_page_cache() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() };
}

/// CPU seconds (user + sys) and peak resident set (KiB) of every child
/// process this process has reaped so far.
pub fn children_usage() -> (f64, u64) {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return (0.0, 0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&ru.utime) + secs(&ru.stime), ru.maxrss.max(0) as u64)
}

fn clock_ticks() -> f64 {
    // SAFETY: sysconf has no memory-safety preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + sys CPU seconds of a live process, from `/proc/<pid>/stat`.
pub fn proc_cpu_secs(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// Peak resident set (KiB) of a live process, from `/proc/<pid>/status`.
pub fn proc_peak_rss_kb(pid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Run a program to completion, killing it if it outlives `timeout`.
/// Returns its exit status, or `None` when the watchdog killed it.
pub fn run_with_timeout(cmd: &mut Command, timeout: Duration) -> io::Result<Option<ExitStatus>> {
    let mut child = cmd.spawn()?;
    let pid = child.id() as i32;
    let (tx, rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: plain syscall; the child is not yet reaped, so the pid
            // still names it.
            unsafe { kill(pid, SIGKILL) };
            return true;
        }
        false
    });
    let status = child.wait();
    let _ = tx.send(());
    let killed = watchdog.join().unwrap_or(false);
    let status = status?;
    Ok(if killed { None } else { Some(status) })
}

/// A free TCP port on the loopback interface.
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// One `pmaxt serve` process. Killed and reaped on drop.
pub struct Daemon {
    child: Option<Child>,
    /// Address clients connect to (`unix:<path>` or `127.0.0.1:<port>`).
    pub addr: String,
    /// Where its stderr goes.
    pub log: PathBuf,
}

impl Daemon {
    /// Spawn `pmaxt serve <addr> <args...>`, stderr to `log`.
    pub fn spawn(pmaxt: &Path, addr: &str, args: &[String], log: &Path) -> io::Result<Daemon> {
        let err = fs::File::create(log)?;
        let child = Command::new(pmaxt)
            .arg("serve")
            .arg(addr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()?;
        Ok(Daemon {
            child: Some(child),
            addr: addr.to_string(),
            log: log.to_path_buf(),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Block until the daemon answers a `ping`, polling its socket.
    pub fn wait_ready(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        let ping = Json::obj(vec![("cmd", Json::str("ping"))]);
        loop {
            if let Ok(mut c) = Client::connect_with(&self.addr, Some(timeout)) {
                if let Ok(resp) = c.request(&ping) {
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        return Ok(());
                    }
                }
            }
            if let Some(child) = self.child.as_mut() {
                if let Some(status) = child.try_wait()? {
                    let log = fs::read_to_string(&self.log).unwrap_or_default();
                    return Err(io::Error::other(format!(
                        "daemon {} exited with {status} before answering: {}",
                        self.addr,
                        log.trim()
                    )));
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!(
                    "daemon {} did not answer within {timeout:?}",
                    self.addr
                )));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// CPU seconds used so far.
    pub fn cpu_secs(&self) -> f64 {
        proc_cpu_secs(self.pid()).unwrap_or(0.0)
    }

    /// Peak resident set so far, KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        proc_peak_rss_kb(self.pid()).unwrap_or(0)
    }

    /// Ask for a clean shutdown, then wait for the process to exit (killing
    /// it if it does not within a few seconds).
    pub fn shutdown(mut self) {
        let req = Json::obj(vec![("cmd", Json::str("shutdown"))]);
        if let Ok(mut c) = Client::connect_with(&self.addr, Some(Duration::from_secs(10))) {
            let _ = c.request(&req);
        }
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStat {
    total: u64,
    iowait: u64,
    steal: u64,
}

impl CpuStat {
    /// Read the current counters (zeros when unavailable).
    pub fn read() -> CpuStat {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        CpuStat {
            total: (0..8).map(at).sum(),
            iowait: at(4),
            steal: at(7),
        }
    }

    /// (steal share, iowait share) of all CPU time between `self` and `later`.
    pub fn shares_until(&self, later: &CpuStat) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        (
            later.steal.saturating_sub(self.steal) as f64 / total,
            later.iowait.saturating_sub(self.iowait) as f64 / total,
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the source tree (`git rev-parse HEAD`), or `unknown`
/// when the tree is not a git checkout.
pub fn source_identity(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}
