//! `stream-1050`: the in-process real-time session at 1,050 chains.
//!
//! 350 keyed `At` streams × the three extended-regular queries of the
//! streaming bench give 1,050 per-key chains, above the default
//! `parallel_threshold` (256), so the default `SessionConfig` takes the
//! parallel path on any host with two or more cores. One caller thread
//! runs a closed loop of `stage_batch` + `tick`, with an explicit
//! `checkpoint()` every `CHECKPOINT_EVERY` ticks.
//!
//! A run is a sequence of segments. Each segment sets up a fresh session
//! (database, registration, warm-up) and times `SEGMENT_TICKS` ticks, so
//! the recorded history, and with it the checkpoint size, is the same in
//! every segment however fast the engine is. Metrics are medians over
//! segments.

use crate::out::Report;
use crate::spans::{layers, Tracer};
use crate::stats::{median, percentile};
use crate::Args;
use lahar_core::{Checkpoint, RealTimeSession, SessionConfig, StatsSnapshot, TickMode};
use lahar_model::{Database, Marginal, StreamBuilder, StreamId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const PEOPLE: usize = 350;
const DOMAIN: [&str; 3] = ["a", "h", "c"];
const QUERIES: [(&str, &str); 3] = [
    ("q_ac", "At(p,'a') ; At(p,'c')"),
    ("q_hc", "At(p,'h') ; At(p,'c')"),
    (
        "q_hall",
        "At(p,'a') ; (At(p, l))+{p | Hallway(l)} ; At(p,'c')",
    ),
];
/// Distinct pregenerated ticks; the inputs cycle through them.
const WINDOW: usize = 512;
/// Untimed ticks after registration: the automaton discovery transient.
const WARMUP: usize = 64;
/// Timed ticks per segment.
const SEGMENT_TICKS: usize = 512;
/// A checkpoint copies the whole recorded history, so its cost grows
/// with the session clock; at this interval capturing stays a minority
/// of the window and the kernel does most of the work.
const CHECKPOINT_EVERY: usize = SEGMENT_TICKS;
/// Ticks (from t = 0) compared bit for bit with the sequential
/// interpreter reference in every segment.
const VERIFY_TICKS: usize = WARMUP + 256;
/// Ticks replayed on a session restored from the first checkpoint.
const RESTORE_TICKS: usize = 64;
/// History of the long-lived session a traced run checkpoints: four
/// segments' worth, so the cost of a checkpoint that grows with the
/// session clock shows beside the per-segment figure.
const LONG_HISTORY: usize = 4 * SEGMENT_TICKS;
/// Checkpoints timed on the long-lived session.
const LONG_CHECKPOINTS: usize = 3;

type Mu = [u64; QUERIES.len()];

/// A seeded input window: `ticks` × `people` marginals with supports of
/// 1–3 locations, varying mass and ⊥.
pub fn generate_window(seed: u64, ticks: usize, people: usize) -> Vec<Vec<Marginal>> {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"])
        .expect("fresh schema");
    let b = StreamBuilder::new(db.interner(), "At", &["p0"], &DOMAIN);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5354_5245_414d);
    (0..ticks)
        .map(|_| {
            (0..people)
                .map(|_| {
                    let k = rng.gen_range(1..DOMAIN.len() + 1);
                    let start = rng.gen_range(0..DOMAIN.len());
                    let mass = rng.gen_range(0.2..1.0);
                    let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
                    let total: f64 = weights.iter().sum();
                    let entries: Vec<(&str, f64)> = weights
                        .iter()
                        .enumerate()
                        .map(|(j, w)| (DOMAIN[(start + j) % DOMAIN.len()], mass * w / total))
                        .collect();
                    b.marginal(&entries).expect("mass below one")
                })
                .collect()
        })
        .collect()
}

/// The session's schema: `people` empty keyed `At` streams over
/// {a, h, c} and the `Hallway` relation {h}.
pub fn build_db(people: usize) -> Database {
    let mut db = Database::new();
    db.declare_stream("At", &["person"], &["loc"])
        .expect("fresh schema");
    db.declare_relation("Hallway", 1).expect("fresh schema");
    let i = db.interner().clone();
    db.insert_relation_tuple("Hallway", lahar_model::tuple([i.intern("h")]))
        .expect("declared relation");
    for p in 0..people {
        let b = StreamBuilder::new(&i, "At", &[&format!("p{p}")], &DOMAIN);
        db.add_stream(b.independent(vec![]).expect("empty stream"))
            .expect("distinct keys");
    }
    db
}

fn stream_ids(session: &RealTimeSession) -> Vec<StreamId> {
    (0..PEOPLE)
        .map(|p| session.database().stream_id_at(p).expect("declared stream"))
        .collect()
}

fn batch(ids: &[StreamId], window: &[Vec<Marginal>], t: usize) -> Vec<(StreamId, Marginal)> {
    ids.iter()
        .zip(&window[t % WINDOW])
        .map(|(id, m)| (*id, m.clone()))
        .collect()
}

fn mu(alerts: &[lahar_core::Alert]) -> Result<Mu, String> {
    if alerts.len() != QUERIES.len() {
        return Err(format!("tick returned {} alerts", alerts.len()));
    }
    let mut out = [0u64; QUERIES.len()];
    for (o, a) in out.iter_mut().zip(alerts) {
        *o = a.probability.to_bits();
    }
    Ok(out)
}

/// μ(q@t) for t < `VERIFY_TICKS` from a sequential session whose chains
/// all run on the interpreted transition path.
fn reference(window: &[Vec<Marginal>]) -> Result<Vec<Mu>, String> {
    let config = SessionConfig::builder()
        .tick_mode(TickMode::Sequential)
        .build()
        .map_err(|e| e.to_string())?;
    let mut session =
        RealTimeSession::with_config(build_db(PEOPLE), config).map_err(|e| e.to_string())?;
    for (name, src) in QUERIES {
        session.register(name, src).map_err(|e| e.to_string())?;
    }
    session.force_interpreter(true);
    let ids = stream_ids(&session);
    (0..VERIFY_TICKS)
        .map(|t| {
            session
                .stage_batch(batch(&ids, window, t))
                .map_err(|e| e.to_string())?;
            mu(&session.tick().map_err(|e| e.to_string())?)
        })
        .collect()
}

/// Which arm a segment belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Default config, benchmark spans off: every end-to-end number.
    Untraced,
    /// Default config with the benchmark's spans on.
    Traced,
    /// `TickMode::Sequential`, spans off: the single-threaded baseline.
    Sequential,
}

/// What one segment measured.
struct Segment {
    arm: Arm,
    setup_s: f64,
    build_s: f64,
    register_s: f64,
    window_s: f64,
    tick_us: Vec<f64>,
    capture_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    checkpoint_bytes: usize,
    before: StatsSnapshot,
    after: StatsSnapshot,
    tracer: Tracer,
}

struct Shared {
    window: Vec<Vec<Marginal>>,
    reference: Vec<Mu>,
    restore_checked: bool,
    /// Ticks of any segment's verified prefix whose μ differed.
    mismatched_ticks: usize,
}

fn run_segment(
    shared: &mut Shared,
    arm: Arm,
    setup_from: Instant,
    report: &mut Report,
) -> Result<Segment, String> {
    let mut tr = Tracer::new(arm == Arm::Traced, setup_from);
    let root = tr.begin("setup");
    let build = tr.begin("model.build");
    let build_start = Instant::now();
    let db = build_db(PEOPLE);
    let build_s = build_start.elapsed().as_secs_f64();
    tr.end(build);
    let config = match arm {
        Arm::Sequential => SessionConfig::builder()
            .tick_mode(TickMode::Sequential)
            .build()
            .map_err(|e| e.to_string())?,
        _ => SessionConfig::default(),
    };
    let reg = tr.begin("session.register");
    let reg_start = Instant::now();
    let mut session = RealTimeSession::with_config(db, config).map_err(|e| e.to_string())?;
    for (name, src) in QUERIES {
        session.register(name, src).map_err(|e| e.to_string())?;
    }
    let register_s = reg_start.elapsed().as_secs_f64();
    tr.end(reg);
    if session.n_chains() != PEOPLE * QUERIES.len() {
        return Err(format!("session tracks {} chains", session.n_chains()));
    }
    let ids = stream_ids(&session);
    let mut mus: Vec<Mu> = Vec::with_capacity(WARMUP + SEGMENT_TICKS);
    let warm = tr.begin("warmup");
    for t in 0..WARMUP {
        session
            .stage_batch(batch(&ids, &shared.window, t))
            .map_err(|e| e.to_string())?;
        mus.push(mu(&session.tick().map_err(|e| e.to_string())?)?);
    }
    tr.end(warm);
    tr.end(root);
    // Input generation is not timed: the segment's batches are cloned
    // from the window before its first timed tick.
    let mut batches: Vec<_> = (WARMUP..WARMUP + SEGMENT_TICKS)
        .map(|t| batch(&ids, &shared.window, t))
        .collect();
    let setup_s = setup_from.elapsed().as_secs_f64();
    let before = session.stats().snapshot();
    let mut tick_us = Vec::with_capacity(SEGMENT_TICKS);
    let mut capture_ms = Vec::new();
    let mut encode_ms = Vec::new();
    let mut checkpoint_bytes = 0;
    let mut first_checkpoint: Option<(usize, Checkpoint)> = None;
    let mut last_checkpoint: Option<Checkpoint> = None;
    let window = tr.begin("window");
    let window_start = Instant::now();
    for (i, b) in batches.drain(..).enumerate() {
        let t0 = Instant::now();
        let s = tr.begin("session.stage_batch");
        let staged = session.stage_batch(b);
        tr.end(s);
        let s = tr.begin("session.tick");
        let ticked = session.tick();
        tr.end(s);
        tick_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.attempted += 1;
        match staged.map_err(|e| e.to_string()).and_then(|()| {
            ticked
                .map_err(|e| e.to_string())
                .and_then(|alerts| mu(&alerts))
        }) {
            Ok(m) => mus.push(m),
            Err(e) => {
                report.failed += 1;
                return Err(format!("tick {}: {e}", WARMUP + i));
            }
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let c0 = Instant::now();
            let s = tr.begin("session.checkpoint");
            let ckpt = session.checkpoint().map_err(|e| e.to_string())?;
            tr.end(s);
            capture_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            if first_checkpoint.is_none() {
                first_checkpoint = Some((WARMUP + i + 1, ckpt.clone()));
            }
            last_checkpoint = Some(ckpt);
        }
    }
    let window_s = window_start.elapsed().as_secs_f64();
    tr.end(window);
    let after = session.stats().snapshot();
    // Encoding for storage is what a server does with a checkpoint, not
    // part of the in-process loop: it is timed after the window, on the
    // traced arm only.
    if tr.enabled() {
        if let Some(ckpt) = &last_checkpoint {
            let c0 = Instant::now();
            let s = tr.begin("checkpoint.to_envelope");
            let envelope = ckpt.to_envelope();
            tr.end(s);
            encode_ms.push(c0.elapsed().as_secs_f64() * 1e3);
            checkpoint_bytes = envelope.len();
        }
    }

    // μ over the verified prefix must equal the interpreter reference
    // bit for bit.
    let mismatches = shared
        .reference
        .iter()
        .zip(&mus)
        .filter(|(r, m)| r != m)
        .count();
    report.failed += mismatches as u64;
    shared.mismatched_ticks += mismatches;
    // Once per run: a session restored from the first checkpoint must
    // continue bit for bit.
    if !shared.restore_checked {
        shared.restore_checked = true;
        let (t, ckpt) = first_checkpoint.ok_or("segment took no checkpoint")?;
        // The live session runs on, untimed, to give the ticks to match.
        for tt in mus.len()..t + RESTORE_TICKS {
            session
                .stage_batch(batch(&ids, &shared.window, tt))
                .map_err(|e| e.to_string())?;
            mus.push(mu(&session.tick().map_err(|e| e.to_string())?)?);
        }
        let mut restored =
            RealTimeSession::restore(build_db(PEOPLE), &ckpt).map_err(|e| e.to_string())?;
        let ids = stream_ids(&restored);
        let mut diverged = 0;
        for (tt, live) in mus.iter().enumerate().skip(t).take(RESTORE_TICKS) {
            restored
                .stage_batch(batch(&ids, &shared.window, tt))
                .map_err(|e| e.to_string())?;
            if mu(&restored.tick().map_err(|e| e.to_string())?)? != *live {
                diverged += 1;
            }
        }
        report.attempted += 1;
        if diverged > 0 {
            report.failed += 1;
        }
        report.check(
            "stream.restore_continues_bit_identically",
            diverged == 0,
            format!("restored at t={t}, {diverged} of {RESTORE_TICKS} ticks differ"),
        );
    }
    Ok(Segment {
        arm,
        setup_s,
        build_s,
        register_s,
        window_s,
        tick_us,
        capture_ms,
        encode_ms,
        checkpoint_bytes,
        before,
        after,
        tracer: tr,
    })
}

pub fn run(
    args: &Args,
    budget: Duration,
    process_start: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let window = generate_window(args.seed, WINDOW, PEOPLE);
    let reference = reference(&window)?;
    let mut shared = Shared {
        window,
        reference,
        restore_checked: false,
        mismatched_ticks: 0,
    };
    let arms: &[Arm] = if args.trace {
        &[Arm::Untraced, Arm::Traced, Arm::Sequential]
    } else {
        &[Arm::Untraced]
    };
    let mut segments: Vec<Segment> = Vec::new();
    let mut setup_from = process_start;
    let mut measure_start = None;
    'rounds: loop {
        for &arm in arms {
            let seg = run_segment(&mut shared, arm, setup_from, report)?;
            let start = *measure_start
                .get_or_insert_with(|| setup_from + Duration::from_secs_f64(seg.setup_s));
            segments.push(seg);
            if start.elapsed() >= budget {
                break 'rounds;
            }
            setup_from = Instant::now();
        }
    }
    report.check(
        "stream.mu_matches_interpreter",
        shared.mismatched_ticks == 0,
        format!(
            "{} segments x {VERIFY_TICKS} ticks vs sequential force_interpreter(true), {} differ",
            segments.len(),
            shared.mismatched_ticks
        ),
    );
    report.repeats = segments.iter().filter(|s| s.arm == Arm::Untraced).count();
    summarise(args, &segments, report);
    if args.trace {
        long_history_checkpoints(&shared.window, report)?;
    }
    if args.trace {
        let mut all = Tracer::new(true, process_start);
        for s in segments {
            all.absorb(s.tracer);
        }
        let path = args.trace_path();
        crate::spans::write_chrome_trace(&path, all.spans()).map_err(|e| e.to_string())?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(())
}

/// Runs a default-config session for `LONG_HISTORY` untimed ticks, then
/// times `LONG_CHECKPOINTS` checkpoints and one encoding of the last.
fn long_history_checkpoints(window: &[Vec<Marginal>], report: &mut Report) -> Result<(), String> {
    let mut session = RealTimeSession::new(build_db(PEOPLE)).map_err(|e| e.to_string())?;
    for (name, src) in QUERIES {
        session.register(name, src).map_err(|e| e.to_string())?;
    }
    let ids = stream_ids(&session);
    for t in 0..LONG_HISTORY {
        session
            .stage_batch(batch(&ids, window, t))
            .map_err(|e| e.to_string())?;
        session.tick().map_err(|e| e.to_string())?;
    }
    let mut capture_ms = Vec::with_capacity(LONG_CHECKPOINTS);
    let mut last = None;
    for _ in 0..LONG_CHECKPOINTS {
        let c0 = Instant::now();
        last = Some(session.checkpoint().map_err(|e| e.to_string())?);
        capture_ms.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    let ckpt = last.ok_or("no checkpoint taken")?;
    let c0 = Instant::now();
    let bytes = ckpt.to_envelope().len();
    let encode_ms = c0.elapsed().as_secs_f64() * 1e3;
    report.named(
        &format!("checkpoint.capture_ms.history_{LONG_HISTORY}"),
        "ms",
        &capture_ms,
    );
    report.named_value(
        &format!("checkpoint.encode_ms.history_{LONG_HISTORY}"),
        "ms",
        encode_ms,
    );
    report.named_value(
        &format!("checkpoint.bytes.history_{LONG_HISTORY}"),
        "bytes",
        bytes as f64,
    );
    Ok(())
}

fn ticks_per_s(seg: &Segment) -> f64 {
    SEGMENT_TICKS as f64 / seg.window_s
}

fn summarise(args: &Args, segments: &[Segment], report: &mut Report) {
    let of = |arm: Arm| segments.iter().filter(move |s| s.arm == arm);
    let untraced: Vec<&Segment> = of(Arm::Untraced).collect();
    let setup: Vec<f64> = untraced.iter().map(|s| s.setup_s).collect();
    let tps: Vec<f64> = untraced.iter().map(|s| ticks_per_s(s)).collect();
    // Tick percentiles per pair of consecutive segments (1,024 ticks,
    // so a p99 has ten ticks beyond it); the run reports their median,
    // which a burst of host noise in a few segments does not move.
    let pct = |p: f64| -> Vec<f64> {
        untraced
            .chunks(2)
            .map(|pair| {
                let ticks: Vec<f64> = pair
                    .iter()
                    .flat_map(|s| s.tick_us.iter().copied())
                    .collect();
                percentile(&ticks, p)
            })
            .collect()
    };
    // Throughput (a mean over every tick, pre-empted ones too) and the
    // tail move with the host's load too far to bound on a shared host,
    // so they are per-layer numbers, taken from the untraced segments.
    let tps = report.named("ticks_per_s", "ticks/s", &tps);
    if !args.trace {
        let setup_s = report.named("setup_s", "s", &setup);
        let p50 = report.named("tick_p50_us", "us", &pct(50.0));
        report.named("tick_p99_us", "us", &pct(99.0));
        report.result("setup_s", setup_s, "s");
        report.result("latency_p50_ms", p50 / 1e3, "ms");
        return;
    }
    report.result("throughput_per_s", tps, "1/s");
    let p99 = report.named("tick_p99_us", "us", &pct(99.0));
    report.result("latency_p99_ms", p99 / 1e3, "ms");
    let traced: Vec<&Segment> = of(Arm::Traced).collect();
    let sequential: Vec<&Segment> = of(Arm::Sequential).collect();
    let build_s: Vec<f64> = traced.iter().map(|s| s.build_s).collect();
    let register_ms: Vec<f64> = traced.iter().map(|s| s.register_s * 1e3).collect();
    let build_s = report.named("model.build_s", "s", &build_s);
    let register_ms = report.named("session.register_ms", "ms", &register_ms);

    // Layer times from the traced segments' spans.
    let per_seg =
        |f: &dyn Fn(&Segment) -> f64| -> Vec<f64> { traced.iter().map(|s| f(s)).collect() };
    let layer_of =
        |s: &Segment, name: &str| layers(s.tracer.spans()).remove(name).unwrap_or_default();
    let stage_p50 =
        per_seg(&|s| percentile(&layer_of(s, "session.stage_batch").durations_ns, 50.0) / 1e3);
    let stage_share = per_seg(&|s| {
        let st = layer_of(s, "session.stage_batch").total_ns as f64;
        let tk = layer_of(s, "session.tick").total_ns as f64;
        st / (st + tk).max(1.0)
    });
    let tick_p50 = per_seg(&|s| percentile(&layer_of(s, "session.tick").durations_ns, 50.0) / 1e3);
    let tick_p99 = per_seg(&|s| percentile(&layer_of(s, "session.tick").durations_ns, 99.0) / 1e3);
    report.named("session.stage_us.p50", "us", &stage_p50);
    report.named("session.stage_share", "ratio", &stage_share);
    report.named("session.tick_us.p50", "us", &tick_p50);
    report.named("session.tick_us.p99", "us", &tick_p99);

    // Engine counters over each traced window.
    let delta = |s: &Segment, f: &dyn Fn(&StatsSnapshot) -> u64| {
        f(&s.after).saturating_sub(f(&s.before)) as f64
    };
    let parallel_ratio =
        per_seg(&|s| delta(s, &|x| x.parallel_ticks) / delta(s, &|x| x.ticks).max(1.0));
    let speedup = tps
        / median(
            &sequential
                .iter()
                .map(|s| ticks_per_s(s))
                .collect::<Vec<_>>(),
        )
        .max(1e-9);
    report.named("session.parallel_tick_ratio", "ratio", &parallel_ratio);
    report.named_value("session.parallel_speedup", "x", speedup);
    let ns_per_step = per_seg(&|s| {
        delta(s, &|x| x.tick_latency.sum_ns) / delta(s, &|x| x.chains_stepped).max(1.0)
    });
    let hit_ratio = per_seg(&|s| {
        let fast = delta(s, &|x| x.kernel_fast_steps + x.kernel_frozen_steps);
        fast / (fast + delta(s, &|x| x.kernel_slow_steps)).max(1.0)
    });
    let simd_per_tick =
        per_seg(&|s| delta(s, &|x| x.kernel_simd_steps) / delta(s, &|x| x.ticks).max(1.0));
    let sym_hit = per_seg(&|s| {
        let hits = delta(s, &|x| x.sym_cache_hits);
        hits / (hits + delta(s, &|x| x.sym_cache_misses)).max(1.0)
    });
    report.named("kernel.ns_per_chain_step", "ns", &ns_per_step);
    report.named("kernel.hit_ratio", "ratio", &hit_ratio);
    report.named("kernel.simd_steps_per_tick", "count", &simd_per_tick);
    report.named("kernel.sym_cache_hit_ratio", "ratio", &sym_hit);
    // The raw counters behind the ratios, per tick.
    type Counter = fn(&StatsSnapshot) -> u64;
    let counters: [(&str, Counter); 6] = [
        ("kernel.fast_steps_per_tick", |x| x.kernel_fast_steps),
        ("kernel.frozen_steps_per_tick", |x| x.kernel_frozen_steps),
        ("kernel.slow_steps_per_tick", |x| x.kernel_slow_steps),
        ("kernel.soa_steps_per_tick", |x| x.kernel_soa_steps),
        ("kernel.sym_cache_hits_per_tick", |x| x.sym_cache_hits),
        ("kernel.sym_cache_misses_per_tick", |x| x.sym_cache_misses),
    ];
    for (name, f) in counters {
        let v = per_seg(&|s| delta(s, &f) / delta(s, &|x| x.ticks).max(1.0));
        report.named(name, "count", &v);
    }
    let capture: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.capture_ms.iter().copied())
        .collect();
    let encode: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.encode_ms.iter().copied())
        .collect();
    report.named("checkpoint.capture_ms", "ms", &capture);
    report.named("checkpoint.encode_ms", "ms", &encode);
    report.named_value(
        "checkpoint.bytes",
        "bytes",
        traced.last().map_or(0, |s| s.checkpoint_bytes) as f64,
    );

    // Layer accounting over the timed windows: self time of every span
    // under `window`, against the windows' wall time.
    let layer_names = ["session.stage_batch", "session.tick", "session.checkpoint"];
    let mut wall = 0.0;
    let mut self_ns = vec![0.0; layer_names.len()];
    for s in &traced {
        let ls = layers(s.tracer.spans());
        wall += ls.get("window").map_or(0, |l| l.total_ns) as f64;
        for (acc, name) in self_ns.iter_mut().zip(layer_names) {
            *acc += ls.get(name).map_or(0, |l| l.self_ns) as f64;
        }
    }
    for (name, ns) in layer_names.iter().zip(&self_ns) {
        report.named_value(&format!("self_share.{name}"), "ratio", ns / wall.max(1.0));
    }
    let attributed: f64 = self_ns.iter().sum();
    let unattributed = report.named_value(
        "stream-1050.unattributed_share",
        "ratio",
        1.0 - attributed / wall.max(1.0),
    );
    let largest = self_ns.iter().copied().fold(0.0, f64::max) / wall.max(1.0);
    let tick_share = self_ns[1] / wall.max(1.0);

    // Tracing overhead: paired rounds of untraced and traced segments.
    let pairs: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, t)| (ticks_per_s(u) / ticks_per_s(t) - 1.0) * 100.0)
        .collect();
    let overhead = report.named("trace.overhead_pct", "%", &pairs);
    let overhead_iqr = crate::stats::iqr(&pairs);
    report.named_value("trace.overhead_iqr_pct", "%", overhead_iqr);

    report.result("unattributed_share", unattributed, "ratio");
    report.result("trace.overhead_pct", overhead, "%");
    report.result("trace.overhead_iqr_pct", overhead_iqr, "%");
    report.result("model.build_s", build_s, "s");
    report.result("query.compile_ms", register_ms, "ms");
    report.result("engine.busy_share", tick_share, "ratio");
    report.result("largest_layer_share", largest, "ratio");
}
