//! The line protocol between the benchmark client and its rank
//! processes, and the process handles that carry it.
//!
//! The client writes one command per line to a rank's stdin; a rank
//! answers with lines `@pb <tag> key=value ...` on stdout (any other
//! stdout line is ignored). List values are comma-separated.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PREFIX: &str = "@pb ";

/// One protocol message.
#[derive(Debug, Clone, Default)]
pub struct Msg {
    pub tag: String,
    pub kv: BTreeMap<String, String>,
}

impl Msg {
    pub fn new(tag: &str) -> Self {
        Self {
            tag: tag.to_string(),
            kv: BTreeMap::new(),
        }
    }

    pub fn set(mut self, key: &str, v: impl std::fmt::Display) -> Self {
        self.kv.insert(key.to_string(), v.to_string());
        self
    }

    pub fn set_list<T: std::fmt::Display>(self, key: &str, v: &[T]) -> Self {
        let s = v.iter().map(T::to_string).collect::<Vec<_>>().join(",");
        self.set(key, s)
    }

    /// Print on stdout (rank side).
    pub fn emit(&self) {
        let mut line = format!("{PREFIX}{}", self.tag);
        for (k, v) in &self.kv {
            line.push_str(&format!(" {k}={v}"));
        }
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    pub fn parse(line: &str) -> Option<Self> {
        let mut it = line.strip_prefix(PREFIX)?.split_whitespace();
        let mut m = Msg::new(it.next()?);
        for kv in it {
            let (k, v) = kv.split_once('=')?;
            m.kv.insert(k.to_string(), v.to_string());
        }
        Some(m)
    }

    pub fn f(&self, key: &str) -> f64 {
        self.kv.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    pub fn u(&self, key: &str) -> u64 {
        self.kv.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    pub fn s(&self, key: &str) -> &str {
        self.kv.get(key).map_or("", String::as_str)
    }

    /// A comma-separated list of numbers.
    pub fn list(&self, key: &str) -> Vec<f64> {
        self.s(key)
            .split(',')
            .filter_map(|x| x.parse().ok())
            .collect()
    }

    /// An energy field: `f64` bits in hex, or `none`.
    pub fn energy(&self, key: &str) -> Option<f64> {
        u64::from_str_radix(self.s(key), 16)
            .ok()
            .map(f64::from_bits)
    }
}

/// Encode an energy for [`Msg::energy`].
pub fn energy_field(e: Option<f64>) -> String {
    e.map_or("none".to_string(), |e| format!("{:x}", e.to_bits()))
}

/// A rank process driven over its stdin/stdout.
pub struct RankProc {
    pub rank: usize,
    child: Child,
    stdin: Option<ChildStdin>,
    rx: Receiver<Msg>,
    /// Forwards the rank's protocol lines to `rx`; ends at its EOF.
    reader: Option<JoinHandle<()>>,
}

impl RankProc {
    /// Launch this executable in rank mode with `args`.
    pub fn spawn(rank: usize, args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn rank {rank}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(m) = Msg::parse(&line) {
                    if tx.send(m).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Self {
            rank,
            stdin: child.stdin.take(),
            child,
            rx,
            reader: Some(reader),
        })
    }

    /// Send one command line.
    pub fn send(&mut self, cmd: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        writeln!(stdin, "{cmd}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("rank {}: send `{cmd}`: {e}", self.rank))
    }

    /// Next message, failing at `deadline` or when the rank exits.
    pub fn recv(&self, deadline: Instant) -> Result<Msg, String> {
        let wait = deadline.saturating_duration_since(Instant::now());
        self.rx.recv_timeout(wait).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                format!("rank {}: no reply before the deadline", self.rank)
            }
            RecvTimeoutError::Disconnected => format!("rank {}: exited early", self.rank),
        })
    }

    /// Next message with tag `tag`; other tags are an error.
    pub fn expect(&self, tag: &str, deadline: Instant) -> Result<Msg, String> {
        let m = self.recv(deadline)?;
        if m.tag == tag {
            Ok(m)
        } else {
            Err(format!(
                "rank {}: expected `{tag}`, got `{}`",
                self.rank, m.tag
            ))
        }
    }

    /// Close stdin and wait for a clean exit; kill after `grace`.
    pub fn finish(mut self, grace: Duration) -> Result<(), String> {
        drop(self.stdin.take());
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("rank {} exited with {st}", self.rank)),
                Ok(None) if t0.elapsed() < grace => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err(format!("rank {} did not exit; killed", self.rank)),
            }
        }
    }
}

impl Drop for RankProc {
    /// Kill the rank if it is still running, reap it, and join the
    /// reader (its stdout closes with the process).
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip() {
        let m = Msg::new("solve")
            .set("wall_ns", 12)
            .set("e", energy_field(Some(-1.5)))
            .set_list("lat", &[1, 2, 3]);
        let line = format!(
            "{PREFIX}solve {}",
            m.kv.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let p = Msg::parse(&line).unwrap();
        assert_eq!(p.u("wall_ns"), 12);
        assert_eq!(p.energy("e"), Some(-1.5));
        assert_eq!(p.list("lat"), vec![1.0, 2.0, 3.0]);
        assert_eq!(p.energy("missing"), None);
    }
}
