//! Talking to `samplecfd` over loopback TCP: the daemon process, blocking
//! connections, reply classification, and the open- and closed-loop load
//! generators.

use samplecf_server::Json;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one request ended, for `error_rate` and the correctness check.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok(Json),
    /// The daemon shed load (`busy`): counted as failed, not as wrong.
    Busy,
    /// An error envelope other than `busy`: the daemon got it wrong.
    Error(String),
    /// A line that is not a protocol envelope.
    Malformed(String),
    /// No reply before the deadline, or the connection closed first.
    Unanswered,
}

impl Reply {
    pub fn classify(line: &str) -> Reply {
        let Ok(json) = Json::parse(line.trim_end()) else {
            return Reply::Malformed(line.chars().take(200).collect());
        };
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Reply::Ok(json),
            Some(false) => {
                let code = json
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                if code == "busy" {
                    Reply::Busy
                } else {
                    Reply::Error(line.chars().take(300).collect())
                }
            }
            None => Reply::Malformed(line.chars().take(200).collect()),
        }
    }

    /// Counts against `error_rate`.
    pub fn failed(&self) -> bool {
        !matches!(self, Reply::Ok(_))
    }

    /// Breaks the "every reply is ok" correctness rule (load shedding and
    /// lost replies are failures, not wrong answers).
    pub fn wrong(&self) -> bool {
        matches!(self, Reply::Error(_) | Reply::Malformed(_))
    }

    pub fn json(&self) -> Option<&Json> {
        match self {
            Reply::Ok(json) => Some(json),
            _ => None,
        }
    }
}

/// A `samplecfd` child process; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Drains the daemon's stdout so its later prints never hit a closed pipe.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Start the daemon on an ephemeral loopback port with `workers`
    /// estimation workers and every other setting at its shipped default.
    pub fn spawn(binary: &Path, workers: usize, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .strip_prefix("samplecfd listening on ")
            .map(|a| a.trim().to_string());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                let drain = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                });
                Ok(Daemon {
                    child,
                    drain: Some(drain),
                    addr,
                })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("samplecfd did not report its address: {first:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr).and_then(|mut c| c.call(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("samplecfd did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A blocking, line-framed connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and classify its reply.
    pub fn call(&mut self, line: &str) -> Result<Reply, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Ok(Reply::Unanswered),
            Ok(_) => Ok(Reply::classify(&reply)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(Reply::Unanswered)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Call and require an `ok` reply.
    pub fn ok(&mut self, line: &str) -> Result<Json, String> {
        match self.call(line)? {
            Reply::Ok(json) => Ok(json),
            other => Err(format!("request {line} failed: {other:?}")),
        }
    }
}

/// A request that waits longer than this for its reply is unanswered.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One finished request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the plan (open loop) or the order of issue (closed loop).
    pub index: usize,
    /// Latency in ms: from the due instant (open loop) or the send (closed
    /// loop) to the reply.  `None` when unanswered.
    pub latency_ms: Option<f64>,
    /// How late the generator sent it, in ms (0 for closed loops).
    pub late_ms: f64,
    pub reply: Reply,
}

/// Send `lines[i]` at `start + due[i]` over at most `conns` connections from
/// a single thread, regardless of replies (open loop).  Each request goes to
/// the connection with the fewest unanswered requests; replies on one
/// connection arrive in order.
pub fn open_loop(
    addr: &str,
    conns: usize,
    plan: &[(Duration, String)],
) -> Result<Vec<Done>, String> {
    struct Link {
        stream: TcpStream,
        outbox: Vec<u8>,
        inbox: Vec<u8>,
        waiting: std::collections::VecDeque<usize>,
        closed: bool,
    }
    let mut links = Vec::new();
    for _ in 0..conns.max(1) {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        links.push(Link {
            stream,
            outbox: Vec::new(),
            inbox: Vec::new(),
            waiting: std::collections::VecDeque::new(),
            closed: false,
        });
    }
    let mut done: Vec<Option<Done>> = vec![None; plan.len()];
    let mut sent_at = vec![Duration::ZERO; plan.len()];
    let last_due = plan.last().map_or(Duration::ZERO, |(due, _)| *due);
    let start = Instant::now();
    let mut next = 0;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        while next < plan.len() && plan[next].0 <= now {
            let link = links
                .iter_mut()
                .filter(|l| !l.closed)
                .min_by_key(|l| l.waiting.len())
                .ok_or("every connection closed")?;
            link.outbox.extend_from_slice(plan[next].1.as_bytes());
            link.outbox.push(b'\n');
            link.waiting.push_back(next);
            sent_at[next] = start.elapsed();
            next += 1;
        }
        for link in links.iter_mut().filter(|l| !l.closed) {
            while !link.outbox.is_empty() {
                match link.stream.write(&link.outbox) {
                    Ok(n) => {
                        link.outbox.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        link.closed = true;
                        break;
                    }
                }
            }
            loop {
                match link.stream.read(&mut buf) {
                    Ok(0) => {
                        link.closed = true;
                        break;
                    }
                    Ok(n) => link.inbox.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        link.closed = true;
                        break;
                    }
                }
            }
            let answered = start.elapsed();
            while let Some(pos) = link.inbox.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = link.inbox.drain(..=pos).collect();
                let Some(i) = link.waiting.pop_front() else {
                    return Err("reply without a request".to_string());
                };
                let due = plan[i].0;
                done[i] = Some(Done {
                    index: i,
                    latency_ms: Some(ms(answered.saturating_sub(due))),
                    late_ms: ms(sent_at[i].saturating_sub(due)),
                    reply: Reply::classify(&String::from_utf8_lossy(&line)),
                });
            }
        }
        let outstanding: usize = links.iter().map(|l| l.waiting.len()).sum();
        let all_closed = links.iter().all(|l| l.closed);
        if next == plan.len() && (outstanding == 0 || all_closed) {
            break;
        }
        if start.elapsed() > last_due + REPLY_TIMEOUT {
            break;
        }
        let until_due = plan.get(next).map_or(Duration::from_millis(1), |(due, _)| {
            due.saturating_sub(start.elapsed())
        });
        std::thread::sleep(until_due.min(Duration::from_micros(250)));
    }
    Ok(done
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            d.unwrap_or(Done {
                index: i,
                latency_ms: None,
                late_ms: ms(sent_at[i].saturating_sub(plan[i].0)),
                reply: Reply::Unanswered,
            })
        })
        .collect())
}

/// A unit of closed-loop work: request lines one client sends in order.
pub type Unit = Vec<String>;

/// A closed-loop request: its unit, its step within the unit, and how it
/// ended.
pub type Issued = (usize, usize, Done);

/// Run `clients` closed-loop clients, each on its own connection, taking
/// units from `units` in order until `seconds` have passed (a started unit
/// always finishes).  Returns every request with its unit index and position
/// within the unit, plus the wall time from start to the last reply.
pub fn closed_loop(
    addr: &str,
    clients: usize,
    units: &[Unit],
    seconds: f64,
    min_requests: usize,
) -> Result<(Vec<Issued>, f64), String> {
    let next_unit = AtomicUsize::new(0);
    let issued = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::open(addr)?;
                    loop {
                        let enough = start.elapsed().as_secs_f64() >= seconds
                            && issued.load(Ordering::SeqCst) >= min_requests;
                        let u = next_unit.fetch_add(1, Ordering::SeqCst);
                        if enough || u >= units.len() {
                            return Ok(());
                        }
                        for (step, line) in units[u].iter().enumerate() {
                            let seq = issued.fetch_add(1, Ordering::SeqCst);
                            let sent = Instant::now();
                            let reply = conn.call(line)?;
                            let answered = !matches!(reply, Reply::Unanswered);
                            if !answered {
                                // A late reply must not be read as the next one's.
                                conn = Conn::open(addr)?;
                            }
                            let latency = answered.then(|| ms(sent.elapsed()));
                            results.lock().expect("results lock poisoned").push((
                                u,
                                step,
                                Done {
                                    index: seq,
                                    latency_ms: latency,
                                    late_ms: 0.0,
                                    reply,
                                },
                            ));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<Vec<()>, String>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    let mut out = results.into_inner().expect("results lock poisoned");
    out.sort_by_key(|(_, _, d)| d.index);
    Ok((out, wall))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_classified_for_error_rate_and_correctness() {
        let ok = Reply::classify(r#"{"ok":true,"op":"stats"}"#);
        assert!(!ok.failed() && !ok.wrong());
        assert!(ok.json().is_some());

        let busy =
            Reply::classify(r#"{"ok":false,"error":{"code":"busy","message":"queue full"}}"#);
        assert_eq!(busy, Reply::Busy);
        assert!(busy.failed() && !busy.wrong());

        let err =
            Reply::classify(r#"{"ok":false,"error":{"code":"estimate_failed","message":"boom"}}"#);
        assert!(matches!(err, Reply::Error(_)));
        assert!(err.failed() && err.wrong());

        for line in ["not json", r#"{"op":"stats"}"#, ""] {
            let bad = Reply::classify(line);
            assert!(matches!(bad, Reply::Malformed(_)), "{line}");
            assert!(bad.failed() && bad.wrong());
        }

        assert!(Reply::Unanswered.failed() && !Reply::Unanswered.wrong());
    }
}
