//! Process plumbing: the `pcmax` child servers, loopback connections,
//! and the kernel's per-task accounting under `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` and `/proc/stat`.
const TICKS_PER_S: f64 = 100.0;

/// A `pcmax serve` or `pcmax cluster` child process on an ephemeral port.
pub struct Server {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `pcmax <args> --addr 127.0.0.1:0` and waits for the line
    /// that names the bound address. Only the address is set: every other
    /// setting is the command's default.
    pub fn start(pcmax: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(pcmax)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", pcmax.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("pcmax {args:?} exited before listening"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split(" listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        // Keep the pipe drained so a chatty server never blocks on it.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the reply line (without its
    /// newline) and the time from write to complete reply.
    pub fn call(&mut self, request: &str) -> Result<(&str, Duration), String> {
        let started = Instant::now();
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err("server closed the connection".into()),
            Err(e) => return Err(format!("read: {e}")),
            Ok(_) => {}
        }
        let elapsed = started.elapsed();
        Ok((self.line.trim_end(), elapsed))
    }
}

/// CPU time (user + system) the kernel has charged to process `pid` and
/// all its threads, live or exited, in seconds. The guest kernel leaves
/// the time its host steals out of this figure.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("malformed stat")
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_S)
}

/// CPU time of the calling thread in seconds, from its scheduler
/// statistics (nanosecond resolution).
pub fn thread_cpu_s() -> Result<f64, String> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").map_err(|e| e.to_string())?;
    let ns: u64 = s
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("malformed schedstat")?;
    Ok(ns as f64 * 1e-9)
}

/// Peak resident set (VmHWM) of `pid` in MiB; `None` reads the caller.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    let status = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM")?;
    Ok(kib as f64 / 1024.0)
}

/// Seconds of CPU the host has stolen from this guest, summed over CPUs.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}
