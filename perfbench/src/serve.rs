//! `serve-wal`: `LaharServer` on loopback under an open-loop load.
//!
//! The server runs in-process with a checkpoint directory,
//! `Durability::Always` (an fsync before every ack) and the default shard
//! count. Requests go in turn to session slots, more of them than
//! shards; each slot moves to a fresh session every `SESSION_REQUESTS`
//! requests, and each session has 40 keyed `At` streams and 2 registered
//! queries (80 chains, below the parallel threshold). The generator
//! pipelines NDJSON requests over at most `nproc` connections from one
//! thread: `stage` with `tick: true` writes, a fixed share of `open` reads
//! (which ride the same shard queue and write no log record) and a
//! periodic `checkpoint` per session.
//!
//! A `--trace 0` run holds a fixed reference rate in phases with fresh
//! sessions, for the latency figures. A `--trace 1` run takes turns
//! between closed-loop capacity phases (a fixed number of requests with a
//! fixed number outstanding, so the figure has no ceiling) and phases at
//! the reference rate, alternately untraced and traced (the traced ones
//! scrape `/metrics` for the queue depth and keep client-side spans). It
//! then times checkpoints of one session with a long history, climbs a
//! ladder of offered rates that doubles until a rung does not pass, and
//! replays the same frames through the public protocol, session and WAL
//! calls to time those layers one by one.

use crate::loadgen::{self, Pace, Request};
use crate::out::Report;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::stream::{build_db, generate_window};
use crate::Args;
use lahar_core::protocol::{
    encode_request, encode_response_with_id, parse_request, Command, Response, WireAlert,
    WireMarginal,
};
use lahar_core::wal::{WalMarginal, WalOp, WalWriter};
use lahar_core::{
    Durability, EngineStats, LaharServer, RealTimeSession, ServerConfig, SessionConfig,
};
use lahar_model::{Database, Marginal, StreamId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Keyed streams per session.
const PEOPLE: usize = 40;
/// Two of the streaming bench's queries: 40 × 2 = 80 chains per session.
const QUERIES: [(&str, &str); 2] = [
    ("q_ac", "At(p,'a') ; At(p,'c')"),
    (
        "q_hall",
        "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
    ),
];
/// Session slots per shard: requests go to the slots in turn.
const SESSIONS_PER_SHARD: usize = 3;
/// Requests one session takes before its slot moves on to a fresh
/// session. A checkpoint copies the session's whole history, so bounding
/// the history keeps the checkpoint cost, and with it the latency tail,
/// the same at every offered rate and phase length.
const SESSION_REQUESTS: usize = 200;
/// Distinct pregenerated frames per session, cycled.
const FRAMES: usize = 64;
/// Every `READ_EVERY`-th request of a session is an `open` read.
const READ_EVERY: usize = 10;
/// Every `CHECKPOINT_EVERY`-th request of a session is a `checkpoint`.
const CHECKPOINT_EVERY: usize = 25;
/// Blocking writes per session before a phase's first due time.
const WARMUP_WRITES: usize = 8;
/// The ladder's first offered rate (all kinds), requests/s; each rung
/// doubles it until a rung does not pass or `LADDER_RUNGS` have run.
const LADDER_START: f64 = 250.0;
const LADDER_RUNGS: usize = 9;
/// Requests per closed-loop capacity phase (fewer if the phase reaches
/// its time cap); a `--trace 1` run holds one before each reference
/// phase.
const CAPACITY_REQUESTS: usize = 1500;
/// Requests the capacity phases keep outstanding: enough to keep every
/// shard busy, well below the shard queue's capacity.
const CAPACITY_WINDOW: usize = 32;
/// Writes fed to the long-lived session of a traced run before its
/// checkpoints are timed, and how many are timed.
const LONG_HISTORY: usize = 2048;
const LONG_CHECKPOINTS: usize = 3;
/// The rate the latency metrics are measured at: an eighth of what the
/// server sustains on a quiet 2-core host, so that a host taking a fifth
/// of the CPU away still leaves headroom and the figures describe the
/// code, not a queue.
const REFERENCE_RATE: f64 = 250.0;
/// The reference rate is held in this many phases, each with fresh
/// sessions, so that every phase's checkpoints cover the same history;
/// the run reports the median over phases. A `--trace 0` run spends nine
/// tenths of its time in them.
const REFERENCE_PHASES: usize = 12;
/// Capacity phases, and reference phases (half of them traced), of a
/// `--trace 1` run.
const TRACED_PHASES: usize = 12;
/// A rung passes when its write p99 stays within this limit.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A rung is flagged, not scored, when the generator ran this late (p99).
const LAG_LIMIT_MS: f64 = 5.0;
/// How long a phase waits for its last responses: after its last due
/// time in an open loop, after its start in a closed one. Every request
/// is answered long before on a working server (an overloaded shard
/// answers at once); one still unanswered then counts as missing.
const DRAIN: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Read,
    Checkpoint,
}

/// One phase's sessions and what was sent. Session `g * slots + s` is
/// the `g`-th session of slot `s`.
struct PhaseSessions {
    names: Vec<String>,
    /// Frame indices of each session's acknowledged writes, in order.
    acked: Vec<Vec<usize>>,
}

/// What a phase is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Closed loop without checkpoints: capacity.
    Capacity,
    /// A ladder rung at an offered rate.
    Rung,
    /// The reference rate: the latency figures.
    Reference,
}

/// What one phase measured.
struct PhaseResult {
    rate: f64,
    role: Role,
    traced: bool,
    setup_s: f64,
    /// From the phase start to the last response read.
    elapsed_s: f64,
    sent: usize,
    kinds: Vec<Kind>,
    lat_ms: Vec<Option<f64>>,
    lag_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    backlog_start: usize,
    backlog_end: usize,
    failed: usize,
    /// Requests that never got a response.
    missing: usize,
    /// Responses whose id matched no outstanding request.
    unmatched: usize,
    metrics_before: HashMap<String, f64>,
    metrics_after: HashMap<String, f64>,
    queue_depth_max: f64,
}

impl PhaseResult {
    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.kinds
            .iter()
            .zip(&self.lat_ms)
            .filter(|(k, _)| **k == kind)
            // A failed or missing request misses any latency limit.
            .map(|(_, l)| l.unwrap_or(f64::INFINITY))
            .collect()
    }

    /// Acknowledged writes.
    fn acked(&self) -> usize {
        self.kinds
            .iter()
            .zip(&self.lat_ms)
            .filter(|(k, l)| **k == Kind::Write && l.is_some())
            .count()
    }

    /// Acknowledged writes per second, from the phase start to the last
    /// response.
    fn acks_per_s(&self) -> f64 {
        self.acked() as f64 / self.elapsed_s
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The name of the `generation`-th session of slot `slot` in phase
/// `phase`. The server places a session on shard FNV-1a(name) mod
/// shards; the name is picked so that slot `s` lands on shard
/// `s mod shards`, which gives every shard the same number of slots.
fn session_name(phase: usize, slot: usize, generation: usize, shards: usize) -> String {
    (0..)
        .map(|i| format!("ph{phase}-s{slot}-g{generation}-{i}"))
        .find(|name| (fnv1a(name) % shards as u64) as usize == slot % shards)
        .expect("some suffix hashes to every shard")
}

fn wire_frames(seed: u64, session: usize) -> Vec<Vec<WireMarginal>> {
    generate_window(
        seed.wrapping_mul(1000).wrapping_add(session as u64),
        FRAMES,
        PEOPLE,
    )
    .into_iter()
    .map(|tick| {
        tick.into_iter()
            .enumerate()
            .map(|(p, m)| WireMarginal {
                stream_type: "At".to_owned(),
                key: vec![format!("p{p}")],
                probs: m.probs().to_vec(),
            })
            .collect()
    })
    .collect()
}

fn stage_line(session: &str, frame: &[WireMarginal], id: Option<u64>) -> String {
    encode_request(
        &Command::Stage {
            session: session.to_owned(),
            marginals: frame.to_vec(),
            tick: true,
        },
        id,
    )
}

/// Scrapes `/metrics` into `series{labels} -> value`.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("metrics: {e}"))?;
    s.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("metrics: {e}"))?;
    let mut body = String::new();
    s.read_to_string(&mut body)
        .map_err(|e| format!("metrics: {e}"))?;
    let mut out = HashMap::new();
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_owned(), v);
            }
        }
    }
    Ok(out)
}

fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Mean server-side time of one request phase for one command over a
/// scrape interval, ms (0 when the command was not seen).
fn phase_mean_ms(p: &PhaseResult, command: &str, phase: &str) -> f64 {
    let labels = format!("{{command=\"{command}\",phase=\"{phase}\"}}");
    let sum = delta(
        &p.metrics_before,
        &p.metrics_after,
        &format!("lahar_server_request_duration_seconds_sum{labels}"),
    );
    let count = delta(
        &p.metrics_before,
        &p.metrics_after,
        &format!("lahar_server_request_duration_seconds_count{labels}"),
    );
    if count > 0.0 {
        sum / count * 1e3
    } else {
        0.0
    }
}

struct Bench<'a> {
    /// Client-side spans of the traced phases and of the replay.
    tracer: Tracer,
    shards: usize,
    conns: Vec<TcpStream>,
    metrics_addr: SocketAddr,
    frames: Vec<Vec<Vec<WireMarginal>>>,
    phases: Vec<PhaseSessions>,
    report: &'a mut Report,
}

impl Bench<'_> {
    fn slots(&self) -> usize {
        self.shards * SESSIONS_PER_SHARD
    }

    fn conn_of(&self, slot: usize) -> usize {
        slot % self.conns.len()
    }

    /// Opens and registers the sessions a phase of `total` requests needs
    /// and warms each up with a few blocking writes.
    fn set_up_phase(&mut self, total: usize) -> Result<usize, String> {
        let index = self.phases.len();
        let slots = self.slots();
        let generations = total.div_ceil(slots).div_ceil(SESSION_REQUESTS).max(1);
        let names: Vec<String> = (0..generations * slots)
            .map(|i| session_name(index, i % slots, i / slots, self.shards))
            .collect();
        let mut acked = vec![Vec::new(); names.len()];
        for (i, name) in names.iter().enumerate() {
            let slot = i % slots;
            let conn = &self.conns[self.conn_of(slot)];
            open_session(conn, name)?;
            for f in 0..WARMUP_WRITES {
                let line = stage_line(name, &self.frames[slot][f % FRAMES], None);
                match loadgen::call(conn, &line).map_err(|e| e.to_string())? {
                    Response::Ticked { .. } => acked[i].push(f % FRAMES),
                    other => return Err(format!("warm-up write: {other:?}")),
                }
            }
        }
        self.phases.push(PhaseSessions { names, acked });
        Ok(index)
    }

    /// Runs one phase: at `rate` requests/s for `duration`, or for a
    /// capacity phase `CAPACITY_REQUESTS` in a closed loop, cut off after
    /// `duration`.
    fn run_phase(
        &mut self,
        role: Role,
        rate: f64,
        duration: Duration,
        traced: bool,
        setup_from: Instant,
    ) -> Result<PhaseResult, String> {
        let (total, pace) = match role {
            Role::Capacity => (
                CAPACITY_REQUESTS,
                Pace::Closed {
                    window: CAPACITY_WINDOW,
                    until: duration,
                },
            ),
            _ => (
                (rate * duration.as_secs_f64()).round().max(1.0) as usize,
                Pace::Open,
            ),
        };
        let p = self.set_up_phase(total)?;
        let slots = self.slots();
        // The schedule: uniform due times, slots in turn, and per session
        // every READ_EVERY-th request a read and every CHECKPOINT_EVERY-th
        // a checkpoint. Encoding is done (and timed) before the phase
        // starts.
        let mut per_slot = vec![0usize; slots];
        let mut writes = vec![WARMUP_WRITES; self.phases[p].names.len()];
        let mut schedule = Vec::with_capacity(total);
        let mut kinds = Vec::with_capacity(total);
        // For each write, the session and frame it carries.
        let mut frame_of = Vec::with_capacity(total);
        let mut encode_us = Vec::with_capacity(total);
        for k in 0..total {
            let slot = k % slots;
            let i = per_slot[slot] / SESSION_REQUESTS * slots + slot;
            per_slot[slot] += 1;
            let nth = (per_slot[slot] - 1) % SESSION_REQUESTS + 1;
            let session = self.phases[p].names[i].clone();
            let (kind, cmd) = if nth.is_multiple_of(CHECKPOINT_EVERY) && role != Role::Capacity {
                (Kind::Checkpoint, Command::Checkpoint { session })
            } else if nth.is_multiple_of(READ_EVERY) {
                (Kind::Read, Command::Open { session })
            } else {
                let f = writes[i] % FRAMES;
                writes[i] += 1;
                let marginals = self.frames[slot][f].clone();
                frame_of.push(Some((i, f)));
                (
                    Kind::Write,
                    Command::Stage {
                        session,
                        marginals,
                        tick: true,
                    },
                )
            };
            if kind != Kind::Write {
                frame_of.push(None);
            }
            let t0 = Instant::now();
            let mut line = encode_request(&cmd, Some(k as u64));
            encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
            line.push('\n');
            kinds.push(kind);
            schedule.push(Request {
                due: match pace {
                    Pace::Open => Duration::from_secs_f64(k as f64 / rate),
                    Pace::Closed { .. } => Duration::ZERO,
                },
                conn: self.conn_of(slot),
                line: line.into_bytes(),
            });
        }
        let metrics_before = scrape(self.metrics_addr)?;
        let setup_s = setup_from.elapsed().as_secs_f64();
        // The generator runs on its own thread; in a traced phase this
        // thread samples the shard queue depth meanwhile.
        let mut queue_depth_max = 0.0f64;
        let conns = &self.conns;
        let metrics_addr = self.metrics_addr;
        let phase = std::thread::scope(|scope| {
            let generator = scope.spawn(|| loadgen::run(conns, &schedule, pace, DRAIN));
            if traced {
                while !generator.is_finished() {
                    if let Ok(m) = scrape(metrics_addr) {
                        for (k, v) in &m {
                            if k.starts_with("lahar_server_queue_depth{") {
                                queue_depth_max = queue_depth_max.max(*v);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            generator.join()
        })
        .map_err(|_| "load generator panicked".to_owned())?
        .map_err(|e| format!("load generator: {e}"))?;
        let metrics_after = scrape(self.metrics_addr)?;

        if traced {
            // Each request as a span from its due time to its response,
            // with the generator's lateness and the client-side decode
            // as children.
            let at = |ns: u64| phase.start + Duration::from_nanos(ns);
            for (k, o) in phase.outcomes.iter().enumerate() {
                let (Some(sent), Some(done)) = (o.sent_ns, o.done_ns) else {
                    continue;
                };
                let due = schedule[k].due.as_nanos() as u64;
                let req = Some(k as u64);
                let span = self.tracer.begin_at("request", at(due), req);
                self.tracer.record("loadgen.lag", at(due), at(sent), req);
                self.tracer
                    .record("protocol.decode", at(done), at(done + o.decode_ns), req);
                self.tracer.end_at(span, at(done + o.decode_ns));
            }
        }
        // Requests go out in order, so those a closed loop's deadline left
        // unsent are a suffix; they were never attempted.
        let sent = phase
            .outcomes
            .iter()
            .take_while(|o| o.sent_ns.is_some())
            .count();
        kinds.truncate(sent);
        let mut lat_ms = Vec::with_capacity(total);
        let mut lag_ms = Vec::with_capacity(total);
        let mut decode_us = Vec::new();
        let mut failed = 0;
        for (k, o) in phase.outcomes[..sent].iter().enumerate() {
            let due_ns = schedule[k].due.as_nanos() as u64;
            if let Some(sent) = o.sent_ns {
                lag_ms.push(sent.saturating_sub(due_ns) as f64 / 1e6);
            }
            let ok = matches!(
                (kinds[k], &o.response),
                (Kind::Write, Some(Response::Ticked { .. }))
                    | (Kind::Read, Some(Response::Opened { .. }))
                    | (Kind::Checkpoint, Some(Response::Checkpointed { .. }))
            );
            if o.response.is_some() {
                decode_us.push(o.decode_ns as f64 / 1e3);
            }
            if ok {
                lat_ms.push(o.done_ns.map(|d| d.saturating_sub(due_ns) as f64 / 1e6));
                if let Some((i, f)) = frame_of[k] {
                    self.phases[p].acked[i].push(f);
                }
            } else {
                failed += 1;
                lat_ms.push(None);
            }
        }
        Ok(PhaseResult {
            rate,
            role,
            traced,
            setup_s,
            elapsed_s: phase
                .outcomes
                .iter()
                .filter_map(|o| o.done_ns)
                .max()
                .unwrap_or(1) as f64
                / 1e9,
            sent,
            kinds,
            lat_ms,
            lag_ms,
            encode_us,
            decode_us,
            backlog_start: phase.backlog_start,
            backlog_end: phase.backlog_end,
            failed,
            missing: phase.outcomes[..sent]
                .iter()
                .filter(|o| o.response.is_none())
                .count(),
            unmatched: phase.unmatched,
            metrics_before,
            metrics_after,
            queue_depth_max,
        })
    }

    /// Feeds one session `LONG_HISTORY` writes in a closed loop, then
    /// times `LONG_CHECKPOINTS` checkpoint commands on it, ms each. The
    /// other sessions move on every `SESSION_REQUESTS` requests; this one
    /// shows what a checkpoint costs once a session has a long history.
    fn long_history_checkpoints(&mut self) -> Result<Vec<f64>, String> {
        let p = self.phases.len();
        let name = session_name(p, 0, 0, self.shards);
        let conn = &self.conns[self.conn_of(0)];
        open_session(conn, &name)?;
        let schedule: Vec<Request> = (0..LONG_HISTORY)
            .map(|k| {
                let mut line = stage_line(&name, &self.frames[0][k % FRAMES], Some(k as u64));
                line.push('\n');
                Request {
                    due: Duration::ZERO,
                    conn: 0,
                    line: line.into_bytes(),
                }
            })
            .collect();
        let phase = loadgen::run(
            std::slice::from_ref(conn),
            &schedule,
            Pace::Closed {
                window: CAPACITY_WINDOW,
                until: DRAIN,
            },
            DRAIN,
        )
        .map_err(|e| format!("load generator: {e}"))?;
        let mut acked = Vec::new();
        for (k, o) in phase.outcomes.iter().enumerate() {
            match o.response {
                Some(Response::Ticked { .. }) => acked.push(k % FRAMES),
                _ => return Err(format!("long-history write {k}: {:?}", o.response)),
            }
        }
        let mut ms = Vec::with_capacity(LONG_CHECKPOINTS);
        for _ in 0..LONG_CHECKPOINTS {
            let t0 = Instant::now();
            let line = encode_request(
                &Command::Checkpoint {
                    session: name.clone(),
                },
                None,
            );
            match loadgen::call(conn, &line).map_err(|e| e.to_string())? {
                Response::Checkpointed { .. } => ms.push(t0.elapsed().as_secs_f64() * 1e3),
                other => return Err(format!("checkpoint {name}: {other:?}")),
            }
        }
        // Its series is checked with every other session's.
        self.phases.push(PhaseSessions {
            names: vec![name],
            acked: vec![acked],
        });
        Ok(ms)
    }

    /// Zero silent drops and bit-identical series: every session's clock
    /// equals its acknowledged writes, and each query's series equals an
    /// in-process session fed the same frames.
    fn check_sessions(&mut self) -> Result<(), String> {
        let template = build_db(PEOPLE);
        let mut sessions = 0;
        let mut drops = 0;
        let mut diverged = 0;
        let slots = self.slots();
        for phase in &self.phases {
            for (i, name) in phase.names.iter().enumerate() {
                sessions += 1;
                let slot = i % slots;
                let conn = &self.conns[self.conn_of(slot)];
                let call = |cmd: Command| {
                    loadgen::call(conn, &encode_request(&cmd, None)).map_err(|e| e.to_string())
                };
                let t = match call(Command::Open {
                    session: name.clone(),
                })? {
                    Response::Opened { t, .. } => t as usize,
                    other => return Err(format!("open {name}: {other:?}")),
                };
                if t != phase.acked[i].len() {
                    drops += 1;
                }
                let mut reference =
                    RealTimeSession::new(template.clone()).map_err(|e| e.to_string())?;
                for (q, src) in QUERIES {
                    reference.register(q, src).map_err(|e| e.to_string())?;
                }
                let mut expected: Vec<Vec<u64>> = vec![Vec::new(); QUERIES.len()];
                for &f in &phase.acked[i] {
                    // Fed through the same encode/parse path as the wire.
                    let line = stage_line(name, &self.frames[slot][f], None);
                    let batch = staged(&template, &line)?;
                    reference.stage_batch(batch).map_err(|e| e.to_string())?;
                    for a in reference.tick().map_err(|e| e.to_string())? {
                        expected[a.query.index()].push(a.probability.to_bits());
                    }
                }
                for (qi, (q, _)) in QUERIES.iter().enumerate() {
                    let got = match call(Command::Series {
                        session: name.clone(),
                        query: (*q).to_owned(),
                    })? {
                        Response::Series { series, .. } => {
                            series.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                        }
                        other => return Err(format!("series {q}: {other:?}")),
                    };
                    if got != expected[qi] {
                        diverged += 1;
                    }
                }
            }
        }
        self.report.attempted += 2 * sessions as u64;
        self.report.failed += (drops + diverged) as u64;
        self.report.check(
            "serve.no_silent_drops",
            drops == 0,
            format!("{sessions} sessions, {drops} with clock != acked writes"),
        );
        self.report.check(
            "serve.series_match_in_process_session",
            diverged == 0,
            format!("{} series, {diverged} differ", sessions * QUERIES.len()),
        );
        Ok(())
    }
}

/// Opens session `name` and registers the queries on it.
fn open_session(conn: &TcpStream, name: &str) -> Result<(), String> {
    let call =
        |cmd: Command| loadgen::call(conn, &encode_request(&cmd, None)).map_err(|e| e.to_string());
    match call(Command::Open {
        session: name.to_owned(),
    })? {
        Response::Opened { .. } => {}
        other => return Err(format!("open {name}: {other:?}")),
    }
    for (q, src) in QUERIES {
        match call(Command::Register {
            session: name.to_owned(),
            name: q.to_owned(),
            query: src.to_owned(),
        })? {
            Response::Registered { .. } => {}
            other => return Err(format!("register {q}: {other:?}")),
        }
    }
    Ok(())
}

/// The `(StreamId, Marginal)` batch a `stage` line carries.
fn staged(db: &Database, line: &str) -> Result<Vec<(StreamId, Marginal)>, String> {
    let (cmd, _) = parse_request(line).map_err(|e| e.to_string())?;
    let Command::Stage { marginals, .. } = cmd else {
        return Err("not a stage request".to_owned());
    };
    marginals
        .iter()
        .map(|m| {
            let p: usize = m.key[0][1..].parse().map_err(|_| "bad key".to_owned())?;
            let id = db.stream_id_at(p).ok_or("unknown stream")?;
            let marginal = Marginal::new(db.streams()[p].domain(), m.probs.clone())
                .map_err(|e| e.to_string())?;
            Ok((id, marginal))
        })
        .collect()
}

pub fn run(
    args: &Args,
    budget: Duration,
    process_start: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let work = PathBuf::from(format!(".perfbench/serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = run_in(args, budget, process_start, report, &work);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn run_in(
    args: &Args,
    budget: Duration,
    process_start: Instant,
    report: &mut Report,
    work: &Path,
) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build_start = Instant::now();
    let template = build_db(PEOPLE);
    let shards = cores; // the server's default: one shard per core
    let frames: Vec<_> = (0..shards * SESSIONS_PER_SHARD)
        .map(|s| wire_frames(args.seed, s))
        .collect();
    let build_s = build_start.elapsed().as_secs_f64();
    let config = ServerConfig::builder()
        .checkpoint_dir(work.join("server"))
        .metrics_addr("127.0.0.1:0".parse().expect("literal address"))
        .session_config(
            SessionConfig::builder()
                .durability(Durability::Always)
                .build()
                .map_err(|e| e.to_string())?,
        )
        .build()
        .map_err(|e| e.to_string())?;
    let server = LaharServer::start(config, template.clone()).map_err(|e| e.to_string())?;
    let metrics_addr = server.metrics_addr().ok_or("no metrics endpoint")?;
    let n_conns = cores.clamp(1, 2);
    let conns = (0..n_conns)
        .map(|_| {
            let c = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut bench = Bench {
        tracer: Tracer::new(args.trace, process_start),
        shards,
        conns,
        metrics_addr,
        frames,
        phases: Vec::new(),
        report,
    };
    let secs = budget.as_secs_f64();
    let mut results = Vec::new();
    let mut setup_from = process_start;
    let mut long_checkpoint_ms = Vec::new();
    if args.trace {
        // Capacity and reference phases take turns, so that both sample
        // the host (whose fsync rate drifts over seconds) across the same
        // stretch of the run; every other reference phase is traced.
        let each = Duration::from_secs_f64(secs * 0.4 / TRACED_PHASES as f64);
        // A capacity phase takes about a quarter of the cap on a quiet
        // 2-core host. The cap bounds the run when the server is far
        // slower.
        let capacity_cap = each * 2;
        for i in 0..TRACED_PHASES {
            let phase = bench.run_phase(Role::Capacity, 0.0, capacity_cap, false, setup_from)?;
            results.push(phase);
            setup_from = Instant::now();
            let phase = bench.run_phase(
                Role::Reference,
                REFERENCE_RATE,
                each,
                i % 2 == 1,
                setup_from,
            )?;
            results.push(phase);
            setup_from = Instant::now();
        }
        long_checkpoint_ms = bench.long_history_checkpoints()?;
        // The ladder, last so that an overloaded rung cannot disturb the
        // other phases: a twentieth of the run per rung, stopping at the
        // first rung that does not pass (one flagged because the
        // generator fell behind included: it would fall further behind
        // above).
        let rung = Duration::from_secs_f64(secs * 0.05);
        let mut rate = LADDER_START;
        for _ in 0..LADDER_RUNGS {
            let r = bench.run_phase(Role::Rung, rate, rung, false, setup_from)?;
            setup_from = Instant::now();
            let passed = rung_verdict(&r) == Verdict::Pass;
            results.push(r);
            if !passed {
                break;
            }
            rate *= 2.0;
        }
    } else {
        // Only the reference rate: the end-to-end figures are its latency
        // and set-up, and a run of equal phases gives the most samples of
        // both. Every phase writes the same history, so the peak RSS does
        // not depend on speed.
        let each = Duration::from_secs_f64(secs * 0.9 / REFERENCE_PHASES as f64);
        for _ in 0..REFERENCE_PHASES {
            let phase =
                bench.run_phase(Role::Reference, REFERENCE_RATE, each, false, setup_from)?;
            results.push(phase);
            setup_from = Instant::now();
        }
        bench.report.mark_peak_rss();
    }
    bench.check_sessions()?;
    let replay = if args.trace {
        Some(replay(&mut bench, work)?)
    } else {
        None
    };
    let Bench {
        conns,
        report,
        tracer,
        ..
    } = bench;
    drop(conns);
    if args.trace {
        let path = args.trace_path();
        crate::spans::write_chrome_trace(&path, tracer.spans()).map_err(|e| e.to_string())?;
        report.note(format!("spans written to {}", path.display()));
    }
    server.shutdown().map_err(|e| e.to_string())?;
    summarise(
        args,
        &results,
        replay.as_ref(),
        &long_checkpoint_ms,
        build_s,
        report,
    );
    Ok(())
}

#[derive(PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    /// The generator fell behind: the rung is not scored.
    Flagged,
}

/// A rung passes when its write p99 (a failed write counting as missing
/// the limit) stays within `LATENCY_LIMIT_MS` and the backlog does not
/// grow; it is flagged when the generator ran late.
fn rung_verdict(r: &PhaseResult) -> Verdict {
    let p99 = percentile(&r.latencies(Kind::Write), 99.0);
    let grew = r.backlog_end > r.backlog_start + (r.kinds.len() / 50).max(16);
    if percentile(&r.lag_ms, 99.0) > LAG_LIMIT_MS {
        Verdict::Flagged
    } else if grew || p99 > LATENCY_LIMIT_MS {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// Layer times from replaying reference-phase frames through the public
/// calls, one layer at a time.
struct Replay {
    parse_request_us: Vec<f64>,
    execute_us: Vec<f64>,
    wal_append_us: Vec<f64>,
    wal_fsync_us: f64,
    wal_bytes_per_ack: f64,
    encode_response_us: Vec<f64>,
}

const REPLAY_FRAMES: usize = 400;

fn replay(bench: &mut Bench, work: &Path) -> Result<Replay, String> {
    let template = build_db(PEOPLE);
    let mut session = RealTimeSession::new(template.clone()).map_err(|e| e.to_string())?;
    for (q, src) in QUERIES {
        session.register(q, src).map_err(|e| e.to_string())?;
    }
    let stats = EngineStats::new();
    let mut wal = WalWriter::open(&work.join("replay"), "replay", 0, 0, Durability::Always)
        .map_err(|e| e.to_string())?
        .with_stats(stats.clone());
    let mut out = Replay {
        parse_request_us: Vec::new(),
        execute_us: Vec::new(),
        wal_append_us: Vec::new(),
        wal_fsync_us: 0.0,
        wal_bytes_per_ack: 0.0,
        encode_response_us: Vec::new(),
    };
    let name = "replay";
    let tr = &mut bench.tracer;
    for i in 0..REPLAY_FRAMES {
        let frame = &bench.frames[0][i % FRAMES];
        let line = stage_line(name, frame, Some(i as u64));
        let req = tr.begin_req("replay.request", Some(i as u64));
        let t0 = Instant::now();
        let s = tr.begin("protocol.parse_request");
        let parsed = parse_request(&line).map_err(|e| e.to_string())?;
        tr.end(s);
        out.parse_request_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let Command::Stage { marginals, .. } = parsed.0 else {
            return Err("replay frame is not a stage".to_owned());
        };
        let t0 = Instant::now();
        let s = tr.begin("session.execute");
        let batch = staged(&template, &line)?;
        session.stage_batch(batch).map_err(|e| e.to_string())?;
        let alerts = session.tick().map_err(|e| e.to_string())?;
        tr.end(s);
        out.execute_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let op = WalOp::Ticks(vec![marginals
            .iter()
            .enumerate()
            .map(|(stream, m)| WalMarginal {
                stream,
                probs: m.probs.clone(),
            })
            .collect()]);
        let t0 = Instant::now();
        let s = tr.begin("wal.append");
        wal.append(i as u64, op).map_err(|e| e.to_string())?;
        tr.end(s);
        out.wal_append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let response = Response::Ticked {
            t: session.now(),
            alerts: alerts
                .iter()
                .map(|a| WireAlert {
                    query: a.query.index(),
                    name: a.name.to_string(),
                    t: a.t,
                    probability: a.probability,
                })
                .collect(),
        };
        let t0 = Instant::now();
        let s = tr.begin("protocol.encode_response");
        let encoded = encode_response_with_id(&response, Some(i as u64));
        tr.end(s);
        out.encode_response_us
            .push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(encoded);
        tr.end(req);
    }
    let snap = stats.snapshot();
    out.wal_fsync_us = snap.fsync_latency.mean_ns / 1e3;
    out.wal_bytes_per_ack = snap.wal_bytes as f64 / snap.wal_appends.max(1) as f64;
    Ok(out)
}

fn summarise(
    args: &Args,
    results: &[PhaseResult],
    replay: Option<&Replay>,
    long_checkpoint_ms: &[f64],
    build_s: f64,
    report: &mut Report,
) {
    let reference: Vec<&PhaseResult> = results
        .iter()
        .filter(|r| r.role == Role::Reference)
        .collect();
    // Ladder rungs: validity, backlog and outcome counts. Every rung but
    // the last passed; the sustained rate is the last passing one's.
    let mut sustained = 0.0;
    if args.trace {
        for r in results.iter().filter(|r| r.role == Role::Rung) {
            let writes = r.latencies(Kind::Write);
            let verdict = rung_verdict(r);
            report.note(format!(
                "rung {} req/s: sent {} ok {} failed {} unmatched {}, acks/s {:.1}, write p50 {:.3} \
                 p99 {:.3} ms, lag p99 {:.3} ms, backlog {} -> {}{}",
                r.rate,
                r.sent,
                r.kinds.len() - r.failed,
                r.failed,
                r.unmatched,
                r.acks_per_s(),
                percentile(&writes, 50.0),
                percentile(&writes, 99.0),
                percentile(&r.lag_ms, 99.0),
                r.backlog_start,
                r.backlog_end,
                match verdict {
                    Verdict::Flagged => " FLAGGED (generator behind, not scored)",
                    Verdict::Pass => " pass",
                    Verdict::Fail => " fail",
                }
            ));
            if verdict == Verdict::Pass {
                sustained = r.acks_per_s();
            }
        }
    }
    let missing: usize = results.iter().map(|r| r.missing).sum();
    let unmatched: usize = results.iter().map(|r| r.unmatched).sum();
    report.check(
        "serve.every_request_answered",
        missing == 0 && unmatched == 0,
        format!(
            "{} requests in {} phases, {missing} unanswered, {unmatched} responses unmatched",
            results.iter().map(|r| r.sent).sum::<usize>(),
            results.len()
        ),
    );
    report.repeats = reference.len();
    for r in &reference {
        report.attempted += r.kinds.len() as u64;
        report.failed += r.failed as u64;
    }
    let untraced: Vec<&&PhaseResult> = reference.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&&PhaseResult> = reference.iter().filter(|r| r.traced).collect();
    // The write p50 per reference phase; the run reports their median.
    // The p99s are taken over all phases together, so that at least ten
    // samples lie beyond them.
    let write_p50: Vec<f64> = untraced
        .iter()
        .map(|r| percentile(&r.latencies(Kind::Write), 50.0))
        .collect();
    let writes: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.latencies(Kind::Write))
        .collect();
    let reads: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.latencies(Kind::Read))
        .collect();
    if !args.trace {
        // The phases are all reference phases of one size; the first
        // one's set-up runs from process start and includes the server's.
        let setup: Vec<f64> = results.iter().map(|r| r.setup_s).collect();
        let setup_s = report.named("setup_s", "s", &setup);
        let p50 = report.named("ack_p50_ms", "ms", &write_p50);
        report.named_value("ack_p99_ms", "ms", percentile(&writes, 99.0));
        report.named_value("read_p99_ms", "ms", percentile(&reads, 99.0));
        let lag: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.lag_ms.iter().copied())
            .collect();
        report.named_value("loadgen.lag_p99_ms", "ms", percentile(&lag, 99.0));
        report.result("setup_s", setup_s, "s");
        report.result("latency_p50_ms", p50, "ms");
        return;
    }
    report.named_value("sustained_acks_per_s", "acks/s", sustained);
    // Acks per second over all closed-loop phases together: capacity
    // without a ceiling, where the ladder's sustained rate moves by whole
    // rungs. Pooling (rather than a median over phases) averages over the
    // host's fsync rate, which drifts between phases. It moves with the
    // host's load too far to bound, so it is a per-layer number.
    let phases: Vec<&PhaseResult> = results
        .iter()
        .filter(|r| r.role == Role::Capacity)
        .collect();
    for (i, r) in phases.iter().enumerate() {
        report.note(format!(
            "capacity phase {i}: {} requests, {CAPACITY_WINDOW} outstanding, {:.1} acks/s",
            r.sent,
            r.acks_per_s()
        ));
    }
    let acked: usize = phases.iter().map(|r| r.acked()).sum();
    let elapsed: f64 = phases.iter().map(|r| r.elapsed_s).sum();
    let capacity = report.named_value("capacity_acks_per_s", "acks/s", acked as f64 / elapsed);
    report.result("throughput_per_s", capacity, "1/s");
    // The tail is a per-layer number, from the untraced reference phases.
    let p99 = report.named_value("ack_p99_ms", "ms", percentile(&writes, 99.0));
    report.result("latency_p99_ms", p99, "ms");
    let replay = replay.expect("traced runs replay");
    let t: Vec<&PhaseResult> = traced.iter().map(|r| **r).collect();
    let encode: Vec<f64> = t.iter().flat_map(|r| r.encode_us.iter().copied()).collect();
    let decode: Vec<f64> = t.iter().flat_map(|r| r.decode_us.iter().copied()).collect();
    let encode_us = report.named("protocol.encode_us", "us", &encode);
    let decode_us = report.named("protocol.decode_us", "us", &decode);
    let median_over =
        |f: &dyn Fn(&PhaseResult) -> f64| median(&t.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut phase_ms = HashMap::new();
    for command in ["stage", "open", "checkpoint"] {
        for phase in ["queue_wait", "execute", "wal_append", "respond"] {
            let v = median_over(&|r| phase_mean_ms(r, command, phase));
            phase_ms.insert((command, phase), v);
            report.named_value(&format!("server.{phase}_ms.mean.{command}"), "ms", v);
        }
    }
    let queue_max = median_over(&|r| r.queue_depth_max);
    report.named_value("server.queue_depth_max", "count", queue_max);
    report.named_value(
        "server.overloaded_total",
        "count",
        t.iter()
            .map(|r| {
                delta(
                    &r.metrics_before,
                    &r.metrics_after,
                    "lahar_server_overloaded_total",
                )
            })
            .sum(),
    );
    let ckpt_ms: f64 = ["execute", "wal_append", "respond"]
        .iter()
        .map(|ph| phase_ms[&("checkpoint", *ph)])
        .sum();
    report.named_value("checkpoint.cmd_ms", "ms", ckpt_ms);
    report.named(
        &format!("checkpoint.cmd_ms.history_{LONG_HISTORY}"),
        "ms",
        long_checkpoint_ms,
    );
    report.named("protocol.parse_request_us", "us", &replay.parse_request_us);
    report.named(
        "protocol.encode_response_us",
        "us",
        &replay.encode_response_us,
    );
    report.named("session.execute_us", "us", &replay.execute_us);
    report.named("wal.append_us", "us", &replay.wal_append_us);
    report.named_value("wal.fsync_us", "us", replay.wal_fsync_us);
    report.named_value("wal.bytes_per_ack", "bytes", replay.wal_bytes_per_ack);
    let lag: Vec<f64> = t.iter().flat_map(|r| r.lag_ms.iter().copied()).collect();
    let lag_ms_mean = lag.iter().sum::<f64>() / lag.len().max(1) as f64;
    report.named_value("loadgen.lag_p99_ms", "ms", percentile(&lag, 99.0));

    // Request accounting: the mean write latency (from due time) against
    // the layers it passes through, by mean.
    let traced_writes: Vec<f64> = t
        .iter()
        .flat_map(|r| r.latencies(Kind::Write))
        .filter(|l| l.is_finite())
        .collect();
    let mean_latency = traced_writes.iter().sum::<f64>() / traced_writes.len().max(1) as f64;
    let layers = [
        ("loadgen.lag", lag_ms_mean),
        ("protocol.encode", encode_us / 1e3),
        ("server.queue_wait", phase_ms[&("stage", "queue_wait")]),
        ("server.execute", phase_ms[&("stage", "execute")]),
        ("server.wal_append", phase_ms[&("stage", "wal_append")]),
        ("server.respond", phase_ms[&("stage", "respond")]),
        ("protocol.decode", decode_us / 1e3),
    ];
    for (name, ms) in &layers {
        report.named_value(
            &format!("share.{name}"),
            "ratio",
            ms / mean_latency.max(1e-9),
        );
    }
    let attributed: f64 = layers.iter().map(|(_, ms)| ms).sum();
    let unattributed = report.named_value(
        "serve-wal.unattributed_share",
        "ratio",
        1.0 - attributed / mean_latency.max(1e-9),
    );
    let largest = layers.iter().map(|(_, ms)| *ms).fold(0.0, f64::max) / mean_latency.max(1e-9);
    let execute_share = phase_ms[&("stage", "execute")] / mean_latency.max(1e-9);

    // Tracing overhead on the write p50, over the alternating pairs.
    let p50 = |r: &PhaseResult| percentile(&r.latencies(Kind::Write), 50.0);
    let pairs: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, tr)| (p50(tr) / p50(u) - 1.0) * 100.0)
        .collect();
    let overhead = report.named("trace.overhead_pct", "%", &pairs);
    let overhead_iqr = crate::stats::iqr(&pairs);
    report.named_value("trace.overhead_iqr_pct", "%", overhead_iqr);
    // Registration happens at phase set-up, so it is read from the
    // counters' totals since the server started.
    let register_ms = {
        let m = &t.last().expect("traced phases").metrics_after;
        let key = |part: &str| {
            m.get(&format!(
                "lahar_server_request_duration_seconds_{part}{{command=\"register\",phase=\"execute\"}}"
            ))
            .copied()
            .unwrap_or(0.0)
        };
        key("sum") / key("count").max(1.0) * 1e3
    };

    report.result("unattributed_share", unattributed, "ratio");
    report.result("trace.overhead_pct", overhead, "%");
    report.result("trace.overhead_iqr_pct", overhead_iqr, "%");
    report.result("model.build_s", build_s, "s");
    report.result("query.compile_ms", register_ms, "ms");
    report.result("engine.busy_share", execute_share, "ratio");
    report.result("largest_layer_share", largest, "ratio");
}
