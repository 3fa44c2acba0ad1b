//! `spawn`: runs one child process to its end and reports what `run.py`
//! measures of it.
//!
//! ```text
//! gala-e2ebench spawn --stdout F --stderr F --timeout S -- PROGRAM [ARG]...
//! ```
//!
//! The child's stdout and stderr go to the two files, and it inherits this
//! process's environment. The output is one JSON object: `wall_s` (spawn to
//! exit), `code` or `signal` (whichever ended it), `timed_out` (killed after
//! `S` seconds), `maxrss_kb` (the child's peak RSS) and `busy_ticks` /
//! `steal_ticks` (all CPUs' busy and stolen clock ticks from `/proc/stat`
//! over the child's life).
//!
//! Peak RSS is read here, not by the Python driver: exec folds the
//! high-water RSS of the process that spawned the child into the child's
//! `ru_maxrss`, so the spawner's own footprint is a floor under the figure.
//! This process stays small, so its floor is far below a `gala detect`.

use gala_telemetry::Value;
use std::fs::File;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("`spawn` reads /proc/stat and the 64-bit Linux `struct rusage`");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

// The two libc calls std does not wrap.
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Peak RSS in KiB over every child this process has waited for.
fn children_maxrss_kb() -> Result<i64, String> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss)
}

/// (busy, steal) clock ticks of all CPUs so far. Steal is time the
/// hypervisor ran something else on a vCPU that had work.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| {
            f.parse()
                .map_err(|_| format!("/proc/stat: bad field {f:?}"))
        })
        .collect::<Result<_, _>>()?;
    let [user, nice, system, _idle, _iowait, irq, softirq, steal] = fields[..] else {
        return Err("/proc/stat: short cpu line".to_string());
    };
    Ok((user + nice + system + irq + softirq, steal))
}

pub fn spawn(args: &[String]) -> Result<Value, String> {
    let (mut stdout, mut stderr, mut timeout) = (None, None, None);
    let mut it = args.iter();
    let program = loop {
        let Some(a) = it.next() else {
            return Err("spawn needs `-- PROGRAM [ARG]...`".to_string());
        };
        if a == "--" {
            break it.next().ok_or("spawn needs a program after `--`")?;
        }
        let v = it.next().ok_or(format!("{a} needs a value"))?;
        match a.as_str() {
            "--stdout" => stdout = Some(v),
            "--stderr" => stderr = Some(v),
            "--timeout" => {
                timeout = Some(v.parse::<f64>().map_err(|e| format!("--timeout: {e}"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    };
    let create = |path: Option<&String>, flag: &str| {
        let path = path.ok_or(format!("spawn needs {flag}"))?;
        File::create(path).map_err(|e| format!("{path}: {e}"))
    };
    let out = create(stdout, "--stdout")?;
    let err = create(stderr, "--stderr")?;
    let timeout = Duration::from_secs_f64(timeout.ok_or("spawn needs --timeout")?);

    let (busy0, steal0) = cpu_ticks()?;
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(it)
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let pid = child.id() as i32;
    let (done, ended) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        let expired = ended.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout);
        if expired {
            // SAFETY: plain syscall. It runs only if the timeout expires
            // before the main thread's `wait` returns and signals `ended`, so
            // `pid` still names the child, or one just reaped and not reused.
            unsafe { kill(pid, SIGKILL) };
        }
        expired
    });
    let status = child.wait().map_err(|e| format!("wait: {e}"));
    let wall = start.elapsed().as_secs_f64();
    let _ = done.send(());
    let timed_out = watchdog.join().map_err(|_| "watchdog panicked")?;
    let status = status?;
    let (busy1, steal1) = cpu_ticks()?;
    let opt = |x: Option<i32>| x.map_or(Value::Null, |x| Value::from(i64::from(x)));
    Ok(Value::object()
        .set("wall_s", wall)
        .set("code", opt(status.code()))
        .set("signal", opt(status.signal()))
        .set("timed_out", timed_out)
        .set("maxrss_kb", children_maxrss_kb()?)
        .set("busy_ticks", busy1 - busy0)
        .set("steal_ticks", steal1 - steal0))
}
