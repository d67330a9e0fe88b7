//! An NDJSON load generator.
//!
//! One thread drives every connection. In an open loop it writes each
//! request when it falls due, whether or not earlier requests were
//! answered; in a closed loop it keeps a fixed number of requests
//! outstanding. It reads responses as they arrive, matching them by
//! request id. Sockets are non-blocking and the thread sleeps in
//! `ppoll(2)`, whose nanosecond timeout lets it wake for the next due time
//! without spinning on a core the server needs. Each request is timed
//! from the moment it was due, so a stall also charges the requests
//! queued behind it; how late the generator itself ran is recorded
//! separately.
//!
//! `ppoll` is declared here by hand (std links libc but does not expose
//! it), which makes this module the benchmark's one `unsafe` block. The
//! declaration follows the Linux ABI (`nfds_t` is `unsigned long`,
//! `struct timespec` is two `long`s on 64-bit targets), so the benchmark
//! builds only for 64-bit Linux.

use lahar_core::protocol::{parse_response_with_id, Response};
use std::ffi::{c_long, c_ulong};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the load generator's ppoll declaration is for 64-bit Linux");

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until a socket is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // `pollfd` structs laid out as the C ABI expects (`repr(C)`, i32 + two
    // i16); `ts` lives across the call; a null sigmask leaves the signal
    // mask unchanged. ppoll writes only the `revents` fields.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// How a schedule is paced.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Each request is written at its due time.
    Open,
    /// Each request is written as soon as fewer than `window` are
    /// outstanding, until `until` after the start; due times are ignored
    /// and requests not sent by then are left out.
    Closed { window: usize, until: Duration },
}

/// One request of a schedule.
pub struct Request {
    /// When it falls due, from the phase start (open loop only).
    pub due: Duration,
    /// Which connection carries it.
    pub conn: usize,
    /// The encoded NDJSON line (with its trailing newline); its id is the
    /// request's index in the schedule.
    pub line: Vec<u8>,
}

/// What happened to one request.
#[derive(Clone, Default)]
pub struct Outcome {
    /// Time from the phase start until the generator wrote it.
    pub sent_ns: Option<u64>,
    /// Time from the phase start until its response was read.
    pub done_ns: Option<u64>,
    /// The response, if one arrived.
    pub response: Option<Response>,
    /// Client-side decode time of the response.
    pub decode_ns: u64,
}

/// The result of one phase.
pub struct Phase {
    pub start: Instant,
    pub outcomes: Vec<Outcome>,
    /// Requests sent but not answered when a tenth of the schedule was sent.
    pub backlog_start: usize,
    /// Requests sent but not answered when the last request was sent.
    pub backlog_end: usize,
    /// Responses that could not be parsed or matched to a request.
    pub unmatched: usize,
}

struct Conn<'a> {
    stream: &'a TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// The server closed the connection: it is no longer polled.
    closed: bool,
}

/// Runs a schedule (sorted by `due` in an open loop) over `conns` and
/// waits up to `drain` after the last request is sent (in an open loop:
/// after its due time) for the remaining responses.
pub fn run(
    conns: &[TcpStream],
    schedule: &[Request],
    pace: Pace,
    drain: Duration,
) -> std::io::Result<Phase> {
    for c in conns {
        c.set_nonblocking(true)?;
    }
    let mut cs: Vec<Conn> = conns
        .iter()
        .map(|stream| Conn {
            stream,
            out: Vec::with_capacity(1 << 16),
            written: 0,
            inbuf: Vec::with_capacity(1 << 16),
            closed: false,
        })
        .collect();
    let n = schedule.len();
    let mut outcomes = vec![Outcome::default(); n];
    let mut next = 0usize;
    // Requests to send: all of them, unless a closed loop's deadline
    // passes first.
    let mut limit = n;
    let mut answered = 0usize;
    let mut unmatched = 0usize;
    let mut backlog_start = 0usize;
    let mut backlog_end = 0usize;
    let start = Instant::now();
    // When sending stops: the last due time, or a closed loop's deadline.
    let stop = start
        + match pace {
            Pace::Open => schedule.last().map_or(Duration::ZERO, |r| r.due),
            Pace::Closed { until, .. } => until,
        };
    let mut give_up = stop + drain;
    let mut chunk = vec![0u8; 1 << 16];
    let result = loop {
        let now = Instant::now();
        let now_ns = now.duration_since(start).as_nanos() as u64;
        let is_due = |next: usize, answered: usize| match pace {
            Pace::Open => start + schedule[next].due <= now,
            Pace::Closed { window, .. } => now < stop && next.saturating_sub(answered) < window,
        };
        if let Pace::Closed { .. } = pace {
            if next < limit && now >= stop {
                // The deadline passed: what is left is not sent.
                limit = next;
                backlog_end = next - answered;
                give_up = now + drain;
            }
        }
        while next < limit && is_due(next, answered + unmatched) {
            let r = &schedule[next];
            cs[r.conn].out.extend_from_slice(&r.line);
            outcomes[next].sent_ns = Some(now_ns);
            next += 1;
            if next == n.div_ceil(10) {
                backlog_start = next - answered;
            }
            if next == limit {
                backlog_end = next - answered;
            }
        }
        for c in &mut cs {
            while c.written < c.out.len() {
                match (&*c.stream).write(&c.out[c.written..]) {
                    Ok(0) => break,
                    Ok(k) => c.written += k,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if c.written == c.out.len() {
                c.out.clear();
                c.written = 0;
            }
        }
        for c in cs.iter_mut().filter(|c| !c.closed) {
            loop {
                match (&*c.stream).read(&mut chunk) {
                    Ok(0) => {
                        c.closed = true;
                        break;
                    }
                    Ok(k) => c.inbuf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if c.inbuf.is_empty() {
                continue;
            }
            let read_ns = start.elapsed().as_nanos() as u64;
            let mut consumed = 0;
            while let Some(pos) = c.inbuf[consumed..].iter().position(|b| *b == b'\n') {
                let line = &c.inbuf[consumed..consumed + pos];
                consumed += pos + 1;
                let t0 = Instant::now();
                let parsed = std::str::from_utf8(line)
                    .ok()
                    .and_then(|l| parse_response_with_id(l).ok());
                let decode_ns = t0.elapsed().as_nanos() as u64;
                match parsed {
                    Some((resp, Some(id)))
                        if (id as usize) < n
                            && outcomes[id as usize].sent_ns.is_some()
                            && outcomes[id as usize].done_ns.is_none() =>
                    {
                        let o = &mut outcomes[id as usize];
                        o.done_ns = Some(read_ns);
                        o.response = Some(resp);
                        o.decode_ns = decode_ns;
                        answered += 1;
                    }
                    _ => unmatched += 1,
                }
            }
            c.inbuf.drain(..consumed);
        }
        if next == limit && answered + unmatched >= limit {
            break Ok(());
        }
        let now = Instant::now();
        if next == limit && now >= give_up {
            break Ok(());
        }
        if cs.iter().all(|c| c.closed) {
            break Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed every connection",
            ));
        }
        let timeout = match pace {
            Pace::Open if next < n => (start + schedule[next].due).saturating_duration_since(now),
            Pace::Closed { .. } if next < limit => stop.saturating_duration_since(now),
            _ => give_up.saturating_duration_since(now),
        };
        if timeout.is_zero() {
            continue;
        }
        let mut fds: Vec<PollFd> = cs
            .iter()
            .filter(|c| !c.closed)
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait(&mut fds, timeout);
    };
    for c in conns {
        c.set_nonblocking(false)?;
    }
    result.map(|()| Phase {
        start,
        outcomes,
        backlog_start,
        backlog_end,
        unmatched,
    })
}

/// Sends one request without an id and blocks for its response (set-up
/// and final reads, outside any timed phase). A response that carries an
/// id answers a request of an earlier phase that outlived its drain; it
/// is skipped (that phase already counted the request as missing).
pub fn call(conn: &TcpStream, line: &str) -> std::io::Result<Response> {
    let mut w = conn;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut r = conn;
    loop {
        while let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let (response, id) = parse_response_with_id(text.trim_end())
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            if id.is_none() {
                return Ok(response);
            }
        }
        let k = r.read(&mut chunk)?;
        if k == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        buf.extend_from_slice(&chunk[..k]);
    }
}
