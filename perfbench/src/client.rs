//! Closed-loop HTTP client for the serve-mixed workload.
//!
//! `conns` threads share one request list; each sends its next request
//! only after the previous response has been read in full (the server
//! closes every connection). A request fails when it cannot connect, the
//! connection breaks, the status is not 200, or — for reads — its
//! `results` bytes differ from an earlier response to the same body at
//! the same generation.
//!
//! A `hold` request opens a fold barrier around the update after it,
//! whose records make the server start a background compaction: once
//! every earlier request has finished, the `hold` read is sent, the
//! update follows [`HOLD_LEAD`] later while the read still samples, and
//! the other connections wait until the fold has been installed (or the
//! server is gone). So every compaction runs beside exactly one read, and
//! which requests it can affect does not depend on timing.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Kind of the read that opens a fold barrier.
pub const HOLD: &str = "hold";
/// How long after the `hold` read the barrier's update is sent.
const HOLD_LEAD: Duration = Duration::from_millis(100);
/// How long a barrier waits for the server to install the fold.
const FOLD_TIMEOUT: Duration = Duration::from_secs(60);

/// One request from a `.req` file.
pub struct Request {
    /// Mix label (`st4`, `topk`, `acc`, `update`).
    pub kind: String,
    /// Endpoint path.
    pub path: String,
    /// Request body.
    pub body: String,
}

/// Parse a `.req` file: blocks opened by `> KIND PATH` lines.
pub fn parse_requests(text: &str) -> Result<Vec<Request>, String> {
    let mut out: Vec<Request> = Vec::new();
    for line in text.lines() {
        if let Some(head) = line.strip_prefix("> ") {
            let (kind, path) = head
                .split_once(' ')
                .ok_or_else(|| format!("bad request header {line:?}"))?;
            out.push(Request {
                kind: kind.to_string(),
                path: path.to_string(),
                body: String::new(),
            });
        } else {
            let req = out
                .last_mut()
                .ok_or_else(|| "request body before the first header".to_string())?;
            req.body.push_str(line);
            req.body.push('\n');
        }
    }
    for (i, r) in out.iter().enumerate() {
        if r.kind == HOLD && out.get(i + 1).is_none_or(|u| u.path != "/update") {
            return Err(format!(
                "request {i}: a `{HOLD}` read must precede an update"
            ));
        }
    }
    Ok(out)
}

/// A raw HTTP exchange: `(status, body)`, or an error string when the
/// connection could not be made or broke.
pub fn exchange(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {:?}", &text[..text.len().min(80)]))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The `"generation"` and `"results"` parts of a `/query` response.
pub fn split_response(body: &str) -> Option<(u64, &str)> {
    let gen_start = body.find("\"generation\":")? + "\"generation\":".len();
    let gen_end = gen_start + body[gen_start..].find(|c: char| !c.is_ascii_digit())?;
    let generation = body[gen_start..gen_end].parse().ok()?;
    let res = body.find("\"results\":")? + "\"results\":".len();
    let results = body[res..].trim_end().strip_suffix('}')?;
    Some((generation, results))
}

/// `pending_updates` from a `/healthz` response body.
fn pending_updates(body: &str) -> Option<u64> {
    let start = body.find("\"pending_updates\":")? + "\"pending_updates\":".len();
    let end = start + body[start..].find(|c: char| !c.is_ascii_digit())?;
    body[start..end].parse().ok()
}

/// Poll `/healthz` until no update is pending (the fold is installed),
/// the server stops answering, or [`FOLD_TIMEOUT`] passes.
fn wait_for_fold(addr: &str) {
    let deadline = Instant::now() + FOLD_TIMEOUT;
    while Instant::now() < deadline {
        match exchange(addr, "GET", "/healthz", "") {
            Ok((200, body)) if pending_updates(&body) != Some(0) => {
                std::thread::sleep(Duration::from_millis(5))
            }
            _ => return,
        }
    }
    eprintln!("perfbench: no fold was installed within {FOLD_TIMEOUT:?}");
}

/// The connections' shared position in the request list.
#[derive(Default)]
struct Queue {
    /// Next request to send.
    next: usize,
    /// Requests sent and not yet answered.
    in_flight: usize,
    /// A fold barrier is open.
    held: bool,
}

/// What a connection sends next.
enum Job {
    /// One request.
    One(usize),
    /// A fold barrier: the `hold` read at this index and the update after it.
    Fold(usize),
}

/// Outcome of one request.
struct Record {
    start_ns: u64,
    end_ns: u64,
    status: u16,
    wrong: bool,
    generation: u64,
    /// The `results` bytes of a generation-1 read, kept for `dump`.
    results: Option<String>,
}

/// Drive `requests` against `addr` over `conns` closed-loop connections.
/// Writes one TSV line per request to `out` (`idx kind start_ns end_ns
/// status ok wrong lines generation`) and, when `dump` is set, the
/// `results` bytes of every generation-1 read (`idx<TAB>results`).
pub fn run(
    addr: &str,
    requests: &[Request],
    conns: usize,
    out: &str,
    dump: Option<&str>,
) -> Result<String, String> {
    let queue = Mutex::new(Queue::default());
    let turn = Condvar::new();
    let seen: Mutex<HashMap<(usize, u64), String>> = Mutex::new(HashMap::new());
    let first_body: HashMap<&str, usize> = requests
        .iter()
        .enumerate()
        .rev()
        .map(|(i, r)| (r.body.as_str(), i))
        .collect();
    let records: Mutex<Vec<Option<Record>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let epoch = Instant::now();
    // Send request `i` and record its outcome; true when it got a 200.
    let send = |i: usize| -> bool {
        let req = &requests[i];
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let reply = exchange(addr, "POST", &req.path, &req.body);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        let mut rec = Record {
            start_ns,
            end_ns,
            status: 0,
            wrong: false,
            generation: 0,
            results: None,
        };
        if let Ok((status, body)) = reply {
            rec.status = status;
            if status == 200 && req.path == "/query" {
                match split_response(&body) {
                    Some((generation, results)) => {
                        rec.generation = generation;
                        let key = (first_body[req.body.as_str()], generation);
                        let mut seen = seen.lock().expect("seen map");
                        match seen.get(&key) {
                            Some(prev) => rec.wrong = prev != results,
                            None => {
                                seen.insert(key, results.to_string());
                            }
                        }
                        if generation == 1 {
                            rec.results = Some(results.to_string());
                        }
                    }
                    None => rec.wrong = true,
                }
            }
        }
        let ok = rec.status == 200;
        records.lock().expect("records")[i] = Some(rec);
        ok
    };
    // The next job for a connection, or None when the list is done.
    let take = || -> Option<Job> {
        let mut q = queue.lock().expect("queue");
        loop {
            let i = q.next;
            if i >= requests.len() {
                return None;
            }
            let busy = q.held || (requests[i].kind == HOLD && q.in_flight > 0);
            if busy {
                q = turn.wait(q).expect("queue");
            } else if requests[i].kind == HOLD {
                q.held = true;
                q.next = i + 2;
                return Some(Job::Fold(i));
            } else {
                q.next += 1;
                q.in_flight += 1;
                return Some(Job::One(i));
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                while let Some(job) = take() {
                    match job {
                        Job::One(i) => {
                            send(i);
                            queue.lock().expect("queue").in_flight -= 1;
                        }
                        Job::Fold(i) => {
                            let updated = std::thread::scope(|s| {
                                let hold = s.spawn(|| send(i));
                                std::thread::sleep(HOLD_LEAD);
                                let updated = send(i + 1);
                                hold.join().expect("hold read");
                                updated
                            });
                            if updated {
                                wait_for_fold(addr);
                            }
                            queue.lock().expect("queue").held = false;
                        }
                    }
                    turn.notify_all();
                }
            });
        }
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let records = records.into_inner().expect("records");
    let mut tsv = String::new();
    let mut dumped = String::new();
    let (mut failed, mut wrong) = (0usize, 0usize);
    for (i, (req, slot)) in requests.iter().zip(records).enumerate() {
        let rec = slot.expect("every request ran");
        let ok = rec.status == 200 && !rec.wrong;
        failed += usize::from(!ok);
        wrong += usize::from(rec.wrong);
        let lines = if req.path == "/query" {
            req.body
                .lines()
                .filter(|l| !l.starts_with('%') && !l.trim().is_empty())
                .count()
        } else {
            0
        };
        tsv.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{lines}\t{}\n",
            req.kind,
            rec.start_ns,
            rec.end_ns,
            rec.status,
            u8::from(ok),
            u8::from(rec.wrong),
            rec.generation
        ));
        if let Some(results) = rec.results {
            dumped.push_str(&format!("{i}\t{results}\n"));
        }
    }
    std::fs::write(out, tsv).map_err(|e| format!("{out}: {e}"))?;
    if let Some(path) = dump {
        std::fs::write(path, dumped).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(format!(
        "{{\"requests\":{},\"failed\":{failed},\"wrong\":{wrong},\"wall_s\":{wall_s}}}",
        requests.len()
    ))
}
