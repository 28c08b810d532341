//! NDJSON clients and the three pacing loops: closed (one request in
//! flight per connection), open (requests due on a fixed schedule,
//! timed from when they were due), and pipelined (a window of requests
//! in flight on one connection).
//!
//! The loops add no client-side floor: readers block on the socket
//! and return as soon as a response arrives; nothing polls or sleeps
//! while responses are owed.

use crate::stats::Sample;
use cxu::gen::json::Json;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A request with no answer after this long counts as failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Buffered line reader that keeps partial lines across read timeouts.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl LineReader {
    /// Whether a complete line is already buffered.
    fn has_line(&self) -> bool {
        self.buf[self.pos..].contains(&b'\n')
    }

    fn read_line(&mut self, out: &mut String) -> std::io::Result<()> {
        loop {
            if let Some(n) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = std::str::from_utf8(&self.buf[self.pos..self.pos + n])
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                out.push_str(line);
                self.pos += n + 1;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                return Ok(());
            }
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + 64 * 1024, 0);
            let got = self.stream.read(&mut self.buf[len..]);
            self.buf.truncate(len + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    rd: LineReader,
    wbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let rd = LineReader {
            stream: stream.try_clone().map_err(|e| e.to_string())?,
            buf: Vec::new(),
            pos: 0,
        };
        Ok(Conn {
            stream,
            rd,
            wbuf: Vec::new(),
        })
    }

    /// Queues a request line; [`Conn::flush`] sends everything queued.
    pub fn queue(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        let r = self.stream.write_all(&self.wbuf);
        self.wbuf.clear();
        r
    }

    pub fn recv(&mut self, out: &mut String) -> std::io::Result<()> {
        out.clear();
        self.rd.read_line(out)
    }

    /// One request, one parsed response, which must be `ok: true`.
    pub fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        self.queue(line);
        self.flush().map_err(|e| format!("write: {e}"))?;
        let mut resp = String::new();
        self.recv(&mut resp).map_err(|e| format!("read: {e}"))?;
        let v = Json::parse(&resp).map_err(|e| format!("bad response {resp:?}: {e}"))?;
        if is_ok(&v) {
            Ok(v)
        } else {
            Err(format!("request failed: {line} → {v}"))
        }
    }
}

pub fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A stream of requests with per-connection state: what to send next,
/// and how the answer changes what comes after.
pub trait Session {
    /// Writes the next request line (no newline) into `out`.
    fn next(&mut self, out: &mut String);
    /// Takes the answer to the request `next` last produced.
    fn answer(&mut self, v: &Json, latency_ns: u64);
}

/// What one loop observed.
#[derive(Default)]
pub struct LoopStats {
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Client-side spans `(request, start_ns, end_ns)` recorded in the
    /// traced slices of a traced phase (see [`Tracing`]).
    pub spans: Vec<(u64, u64, u64)>,
    /// Completions inside traced / untraced slices, and the seconds
    /// those slices covered.
    pub traced_done: u64,
    pub untraced_done: u64,
    pub traced_s: f64,
    pub untraced_s: f64,
    /// Actual-minus-intended send times, µs (open loop only).
    pub lag_us: Vec<u32>,
    /// Server CPU readings about once a second: (µs since the phase
    /// began, CPU seconds), when the loop was given a [`CpuProbe`].
    pub cpu: Vec<(u64, f64)>,
    /// Phase wall time, seconds.
    pub elapsed_s: f64,
}

impl LoopStats {
    pub fn merge(&mut self, o: LoopStats) {
        self.sent += o.sent;
        self.completed += o.completed;
        self.failed += o.failed;
        self.samples.extend(o.samples);
        self.spans.extend(o.spans);
        self.traced_done += o.traced_done;
        self.untraced_done += o.untraced_done;
        self.traced_s += o.traced_s;
        self.untraced_s += o.untraced_s;
        self.lag_us.extend(o.lag_us);
        self.cpu.extend(o.cpu);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
    }
}

/// Reads the server's CPU time about once a second from inside a load
/// loop, so CPU per request can be taken per slice of the phase.
pub struct CpuProbe {
    pid: u32,
    next: Instant,
}

impl CpuProbe {
    pub fn new(pid: u32) -> CpuProbe {
        CpuProbe {
            pid,
            next: Instant::now(),
        }
    }

    /// Records a reading if one is due (or `force`).
    fn tick(&mut self, t0: Instant, st: &mut LoopStats, force: bool) {
        let now = Instant::now();
        if force || now >= self.next {
            if let Ok(cpu) = crate::server::cpu_seconds_of(self.pid) {
                st.cpu
                    .push((now.saturating_duration_since(t0).as_micros() as u64, cpu));
            }
            self.next = now + Duration::from_secs(1);
        }
    }
}

/// Client-side tracing of a served phase: the phase is cut into
/// one-second slices and spans are recorded only in odd slices, so the
/// completion counts of traced and untraced slices, taken from the same
/// phase under the same server state, give the tracing overhead.
#[derive(Clone, Copy)]
pub struct Tracing {
    pub on: bool,
    pub t0: Instant,
}

impl Tracing {
    fn traced_at(&self, at: Instant) -> bool {
        self.on && at.saturating_duration_since(self.t0).as_secs() % 2 == 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records how much of a finished loop's time fell in traced (odd)
    /// and untraced (even) slices.
    fn finish(&self, st: &mut LoopStats) {
        if !self.on {
            return;
        }
        let elapsed_s = st.elapsed_s;
        let full = elapsed_s.floor();
        let odd_full = (full as u64 / 2) as f64;
        let tail = elapsed_s - full;
        let on = odd_full + if full as u64 % 2 == 1 { tail } else { 0.0 };
        st.traced_s = on;
        st.untraced_s = elapsed_s - on;
    }
}

/// Closed loop on one connection until `end` or until `limit` requests
/// have been sent, whichever comes first. Transport errors and answers
/// missing for [`CLIENT_TIMEOUT`] count as failed and end the loop;
/// `ok: false` answers count as failed and the loop continues.
fn closed_loop(
    addr: &str,
    sess: &mut dyn Session,
    t0: Instant,
    end: Instant,
    limit: u64,
    tracing: Tracing,
    mut probe: Option<CpuProbe>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            st.sent = 1;
            st.failed = 1;
            return st;
        }
    };
    let mut line = String::new();
    let mut resp = String::new();
    if let Some(p) = probe.as_mut() {
        p.tick(t0, &mut st, true);
    }
    while st.sent < limit && Instant::now() < end {
        line.clear();
        sess.next(&mut line);
        let start = Instant::now();
        st.sent += 1;
        conn.queue(&line);
        let got = conn.flush().and_then(|()| conn.recv(&mut resp));
        let done = Instant::now();
        let v = match got
            .map_err(|e| e.to_string())
            .and_then(|()| Json::parse(&resp).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(_) => {
                st.failed += 1;
                break;
            }
        };
        let latency_ns = (done - start).as_nanos() as u64;
        if is_ok(&v) {
            st.completed += 1;
            st.samples.push(Sample {
                done_us: (done - t0).as_micros() as u64,
                latency_ns,
            });
            if tracing.traced_at(done) {
                st.traced_done += 1;
                st.spans
                    .push((st.sent, tracing.ns(start), tracing.ns(done)));
            } else {
                st.untraced_done += 1;
            }
        } else {
            st.failed += 1;
        }
        sess.answer(&v, latency_ns);
        if let Some(p) = probe.as_mut() {
            p.tick(t0, &mut st, false);
        }
    }
    if let Some(p) = probe.as_mut() {
        p.tick(t0, &mut st, true);
    }
    st.elapsed_s = (Instant::now() - t0).as_secs_f64();
    st
}

/// How long a closed loop runs: for a duration, or for a fixed number
/// of requests per connection (bounded by a wall-clock deadline, so a
/// stalled server cannot hang the run).
#[derive(Clone, Copy, Debug)]
pub enum Work {
    For(Duration),
    Requests { each: u64, until: Instant },
}

/// Closed loop on two connections: one on a spawned thread, one on the
/// caller's — the load never uses more than two threads. The caller's
/// loop takes the CPU readings when given a server pid.
pub fn closed_loop_pair(
    addr: &str,
    a: &mut dyn Session,
    b: &mut (dyn Session + Send),
    work: Work,
    trace: bool,
    server_pid: Option<u32>,
) -> LoopStats {
    let t0 = Instant::now();
    let (end, limit) = match work {
        Work::For(dur) => (t0 + dur, u64::MAX),
        Work::Requests { each, until } => (until, each),
    };
    let tracing = Tracing { on: trace, t0 };
    let mut st = std::thread::scope(|s| {
        let h = s.spawn(|| closed_loop(addr, b, t0, end, limit, tracing, None));
        let mut st = closed_loop(
            addr,
            a,
            t0,
            end,
            limit,
            tracing,
            server_pid.map(CpuProbe::new),
        );
        st.merge(h.join().expect("load thread panicked"));
        st
    });
    st.elapsed_s = (Instant::now() - t0).as_secs_f64();
    tracing.finish(&mut st);
    st
}

/// Open loop on one connection: requests are due in bursts of `burst`,
/// burst `b` at `t0 + schedule[b]`. A writer thread sends each burst
/// when due (together with anything that fell behind); the calling
/// thread reads. Latency is measured from the due time, so a stall also
/// charges the requests it delayed; how late the writer actually sent
/// is reported as `lag_us`.
pub fn open_loop(
    addr: &str,
    render: &(dyn Fn(u64, &mut String) + Sync),
    answer: &mut dyn FnMut(u64, &Json),
    schedule: &[Duration],
    burst: u64,
    server_pid: Option<u32>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        st.sent = 1;
        st.failed = 1;
        return st;
    };
    let Ok(wstream) = conn.stream.try_clone() else {
        st.sent = 1;
        st.failed = 1;
        return st;
    };
    // Short socket timeouts only let the reader notice the writer's
    // end; a response still wakes the reader the moment it arrives.
    let _ = conn
        .rd
        .stream
        .set_read_timeout(Some(Duration::from_millis(50)));
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(5);
    let burst = burst.max(1);
    let n_total = schedule.len() as u64 * burst;
    let due = |k: u64| t0 + schedule[(k / burst) as usize];
    let mut probe = server_pid.map(CpuProbe::new);

    let lag = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = wstream;
            let mut lag = Vec::with_capacity(n_total as usize);
            let mut buf = Vec::new();
            let mut line = String::new();
            let mut k = 0u64;
            while k < n_total {
                let now = Instant::now();
                let next = due(k);
                if next > now {
                    std::thread::sleep(next - now);
                    continue;
                }
                // Everything due by now goes out in one write.
                buf.clear();
                let first = k;
                while k < n_total && due(k) <= now {
                    line.clear();
                    render(k, &mut line);
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                    k += 1;
                }
                sent.store(k, Ordering::SeqCst);
                let at = Instant::now();
                if w.write_all(&buf).is_err() {
                    break;
                }
                for j in first..k {
                    lag.push(
                        at.saturating_duration_since(due(j))
                            .as_micros()
                            .min(u32::MAX as u128) as u32,
                    );
                }
            }
            done.store(true, Ordering::SeqCst);
            lag
        });

        let mut resp = String::new();
        let mut received = 0u64;
        let mut idle_since: Option<Instant> = None;
        if let Some(p) = probe.as_mut() {
            p.tick(t0, &mut st, true);
        }
        loop {
            if let Some(p) = probe.as_mut() {
                p.tick(t0, &mut st, false);
            }
            match conn.recv(&mut resp) {
                Ok(()) => {
                    idle_since = None;
                    let at = Instant::now();
                    received += 1;
                    let Ok(v) = Json::parse(&resp) else {
                        st.failed += 1;
                        continue;
                    };
                    let id = v.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX);
                    if is_ok(&v) && id < n_total {
                        st.completed += 1;
                        st.samples.push(Sample {
                            done_us: at.saturating_duration_since(t0).as_micros() as u64,
                            latency_ns: at.saturating_duration_since(due(id)).as_nanos() as u64,
                        });
                        answer(id, &v);
                    } else {
                        st.failed += 1;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if done.load(Ordering::SeqCst) && received >= sent.load(Ordering::SeqCst) {
                        break;
                    }
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= CLIENT_TIMEOUT {
                        break;
                    }
                }
                Err(_) => break,
            }
            if done.load(Ordering::SeqCst) && received >= sent.load(Ordering::SeqCst) {
                break;
            }
        }
        if let Some(p) = probe.as_mut() {
            p.tick(t0, &mut st, true);
        }
        // Closing our end unblocks a writer stuck on a dead server.
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        writer.join().expect("writer thread panicked")
    });
    st.sent = sent.load(Ordering::SeqCst);
    // Requests never answered (timeout or dead connection) failed.
    st.failed = st.sent - st.completed;
    st.lag_us = lag;
    st.elapsed_s = (Instant::now() - t0).as_secs_f64();
    st
}

/// Pipelined closed loop on one connection: keep `window` requests in
/// flight until `dur` has passed or `render` reports the stream is
/// exhausted (returns false), then drain. Throughput is
/// `completed / elapsed_s`.
pub fn pipelined(
    addr: &str,
    render: &mut dyn FnMut(u64, &mut String) -> bool,
    answer: &mut dyn FnMut(u64, &Json),
    window: usize,
    dur: Duration,
    tracing_on: bool,
) -> LoopStats {
    let mut st = LoopStats::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        st.sent = 1;
        st.failed = 1;
        return st;
    };
    let t0 = Instant::now();
    let end = t0 + dur;
    let tracing = Tracing { on: tracing_on, t0 };
    let mut line = String::new();
    let mut resp = String::new();
    let mut k = 0u64;
    let mut exhausted = false;
    // Send instants of the requests in flight; answers come back in
    // request order, so the front is always the one being answered.
    let mut in_flight: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    loop {
        if Instant::now() < end && !exhausted {
            while in_flight.len() < window {
                line.clear();
                if !render(k, &mut line) {
                    exhausted = true;
                    break;
                }
                conn.queue(&line);
                k += 1;
                in_flight.push_back(Instant::now());
            }
            if conn.flush().is_err() {
                break;
            }
        }
        if in_flight.is_empty() {
            break;
        }
        // Take every answer already buffered, blocking for at least one.
        loop {
            if conn.recv(&mut resp).is_err() {
                st.sent = k;
                st.failed = k - st.completed;
                st.elapsed_s = t0.elapsed().as_secs_f64();
                return st;
            }
            let sent_at = in_flight
                .pop_front()
                .expect("an answer implies a request in flight");
            match Json::parse(&resp) {
                Ok(v) if is_ok(&v) => {
                    st.completed += 1;
                    let done = Instant::now();
                    if tracing.traced_at(done) {
                        st.traced_done += 1;
                        st.spans
                            .push((st.completed, tracing.ns(sent_at), tracing.ns(done)));
                    } else {
                        st.untraced_done += 1;
                    }
                    answer(v.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX), &v);
                }
                _ => st.failed += 1,
            }
            if in_flight.is_empty() || !conn.rd.has_line() {
                break;
            }
        }
    }
    st.sent = k;
    st.failed = k - st.completed;
    st.elapsed_s = t0.elapsed().as_secs_f64();
    tracing.finish(&mut st);
    st
}

/// Median round trip, µs, of `n` lockstep requests against an
/// in-process echo NDJSON server: the floor this client and the
/// loopback stack add to every measured latency.
pub fn echo_floor_us(n: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
            let mut w = stream.try_clone()?;
            let mut rd = LineReader {
                stream,
                buf: Vec::new(),
                pos: 0,
            };
            let mut line = String::new();
            loop {
                line.clear();
                match rd.read_line(&mut line) {
                    Ok(()) => w.write_all(b"{\"ok\": true}\n")?,
                    Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        let result = (|| {
            let mut c = Conn::connect(&addr)?;
            let mut lat = Vec::with_capacity(n);
            for _ in 0..n {
                let t = Instant::now();
                c.call_ok(r#"{"route": "health"}"#)?;
                lat.push(t.elapsed().as_micros().min(u32::MAX as u128) as u32);
            }
            lat.sort_unstable();
            Ok(f64::from(crate::stats::percentile(&lat, 0.5)))
        })();
        let _ = echo.join();
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An NDJSON server that answers `{"id": N, "ok": true}` to every
    /// line, stalling once for `stall` before its `stall_at`-th answer.
    fn stalling_echo(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut rd = LineReader {
                stream,
                buf: Vec::new(),
                pos: 0,
            };
            let mut line = String::new();
            let mut n = 0;
            loop {
                line.clear();
                if rd.read_line(&mut line).is_err() {
                    return;
                }
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                let id = Json::parse(&line)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_u64)
                    .unwrap();
                if w.write_all(format!("{{\"id\": {id}, \"ok\": true}}\n").as_bytes())
                    .is_err()
                {
                    return;
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        // 400 requests due 1 ms apart; the server stalls 100 ms before
        // answering the 50th. Requests due during the stall are charged
        // the wait they suffered, not just their own service time: the
        // ~100 requests behind the stall all show latency, falling off
        // by about a millisecond per request.
        let (addr, server) = stalling_echo(50, Duration::from_millis(100));
        let schedule: Vec<Duration> = (0..400).map(Duration::from_millis).collect();
        let render = |k: u64, out: &mut String| out.push_str(&format!("{{\"id\": {k}}}"));
        let mut answered = 0;
        let st = open_loop(
            &addr,
            &render,
            &mut |_, _| answered += 1,
            &schedule,
            1,
            None,
        );
        server.join().unwrap();
        assert_eq!(st.sent, 400);
        assert_eq!(st.completed, 400);
        assert_eq!(answered, 400);
        let slow = st
            .samples
            .iter()
            .filter(|s| s.latency_ns >= 50_000_000)
            .count();
        assert!(
            (30..=70).contains(&slow),
            "{slow} requests waited ≥ 50 ms behind a 100 ms stall"
        );
        let max = st.samples.iter().map(|s| s.latency_ns).max().unwrap();
        assert!(
            max >= 95_000_000,
            "the stalled request waited the whole stall: {max} ns"
        );
        assert_eq!(st.lag_us.len(), 400);
    }

    #[test]
    fn bursts_share_a_due_time() {
        let (addr, server) = stalling_echo(usize::MAX, Duration::ZERO);
        let schedule = [Duration::ZERO, Duration::from_millis(30)];
        let render = |k: u64, out: &mut String| out.push_str(&format!("{{\"id\": {k}}}"));
        let t0 = Instant::now();
        let st = open_loop(&addr, &render, &mut |_, _| {}, &schedule, 5, None);
        server.join().unwrap();
        assert_eq!(st.completed, 10, "two bursts of five");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "the second burst waited for its due time"
        );
    }
}
