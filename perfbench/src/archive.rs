//! `archive-markov`: an offline batch over archived Markovian streams.
//!
//! Inputs: an RFID deployment simulated by `lahar-rfid` from the seed and
//! smoothed by `lahar-hmm` into Markovian (CPT) streams, plus synthetic
//! keyed R/S/T streams in the shapes of the `fig14_safe_perf` and
//! `unsafe_queries` benches. Each batch parses and compiles every query
//! from source text and evaluates Q1 per tag (`RegularEvaluator`), Q2
//! (`ExtendedRegularEvaluator`), the Fig 14 safe query (safe plan +
//! `SafePlanExecutor`) and the #P-hard h1–h4 (`Sampler` at a fixed ε, δ
//! and seed). The batch is sized so that Markov evaluation (Q1 + Q2) is
//! the largest share while the safe plan and the sampler stay visible.
//!
//! A run repeats set-up (simulate, smooth, build) and one batch until the
//! time is up. The repeats cycle through `DEPLOYMENTS` deployments drawn
//! from the seed: how much work a batch is depends on the simulated
//! movements, so a run that measured one deployment would move with the
//! seed. Each μ series is one answered query: throughput is series per
//! second and latency runs from a query's parse to its last value.

use crate::out::Report;
use crate::spans::{layers, Tracer};
use crate::stats::{median, percentile};
use crate::Args;
use lahar_core::{
    ExtendedRegularEvaluator, RegularEvaluator, SafePlanExecutor, Sampler, SamplerConfig,
};
use lahar_model::{Database, Marginal, Stream, StreamBuilder};
use lahar_query::{compile_safe_plan, parse_and_validate, NormalQuery};
use lahar_rfid::{Deployment, DeploymentConfig, MovementConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Tagged people (one per office) and carried or left objects.
const PEOPLE: usize = 12;
const OBJECTS: usize = 12;
/// Timesteps of the archived deployment.
const TICKS: usize = 240;
/// The safe query's per-tag R/S streams and their length.
const SAFE_TAGS: usize = 8;
const SAFE_TICKS: usize = 120;
/// Horizon of the sampler's R/S/T database.
const SAMPLER_TICKS: usize = 12;
const SAMPLER: SamplerConfig = SamplerConfig {
    epsilon: 0.05,
    delta: 0.05,
    seed: 1234,
    grounding_cap: 1 << 16,
};
const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];
/// Deployments a run's repeats cycle through.
const DEPLOYMENTS: u64 = 8;

const Q2: &str = "At(p, l1)[Hallway(l1)] ; At(p, l2)[CoffeeRoom(l2)]";
const SAFE_QUERY: &str = "R(x, _) ; S(x, _) ; T('w', y)";
const HARD: [(&str, &str); 4] = [
    ("h1", "sigma[x = y](R(x, _) ; S(y, _))"),
    ("h2", "R('k1', _) ; (S(x, _))+{x}"),
    ("h3", "R('k1', _) ; S(x, _) ; T(x, _)"),
    ("h4", "R(x, _) ; S('k1', _) ; T(x, _)"),
];

fn q1(tag: &str) -> String {
    format!("At('{tag}', l)[Hallway(l)]")
}

fn deployment_config(seed: u64, people: usize, objects: usize, ticks: usize) -> DeploymentConfig {
    DeploymentConfig {
        ticks,
        n_people: people,
        n_objects: objects,
        seed,
        movement: MovementConfig {
            dwell_mean: 6.0,
            ..MovementConfig::default()
        },
        ..DeploymentConfig::default()
    }
}

/// Fig 14's database: per tag an R and an S stream, plus one shared
/// witness stream T keyed 'w'.
fn safe_db(n_tags: usize, ticks: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for st in ["R", "S", "T"] {
        db.declare_stream(st, &["k"], &["v"]).expect("fresh schema");
    }
    let i = db.interner().clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut marginals = |b: &StreamBuilder, density: f64| -> Vec<Marginal> {
        (0..ticks)
            .map(|_| {
                if rng.gen::<f64>() < density {
                    let v = VALUES[rng.gen_range(0..VALUES.len())];
                    b.marginal(&[(v, 0.3 + 0.6 * rng.gen::<f64>())])
                        .expect("mass below one")
                } else {
                    b.marginal(&[]).expect("all bottom")
                }
            })
            .collect()
    };
    for tag in 0..n_tags {
        for st in ["R", "S"] {
            let b = StreamBuilder::new(&i, st, &[&format!("tag{tag}")], &VALUES);
            let ms = marginals(&b, 0.5);
            db.add_stream(b.independent(ms).expect("domain-sized"))
                .expect("distinct keys");
        }
    }
    let b = StreamBuilder::new(&i, "T", &["w"], &VALUES);
    let ms = marginals(&b, 0.4);
    db.add_stream(b.independent(ms).expect("domain-sized"))
        .expect("distinct keys");
    db
}

/// The `unsafe_queries` database: R/S/T streams keyed k1 and k2.
fn sampler_db(ticks: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for st in ["R", "S", "T"] {
        db.declare_stream(st, &["k"], &["v"]).expect("fresh schema");
    }
    let i = db.interner().clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    for st in ["R", "S", "T"] {
        for key in ["k1", "k2"] {
            let b = StreamBuilder::new(&i, st, &[key], &["x"]);
            let ms = (0..ticks)
                .map(|_| {
                    b.marginal(&[("x", rng.gen_range(0.2..0.8))])
                        .expect("mass below one")
                })
                .collect();
            db.add_stream(b.independent(ms).expect("domain-sized"))
                .expect("distinct keys");
        }
    }
    db
}

/// The loaded inputs of one repeat.
struct Inputs {
    markov: Database,
    tags: Vec<String>,
    safe: Database,
    hard: Database,
}

fn set_up(seed: u64, tr: &mut Tracer) -> (Inputs, f64, f64) {
    let build_start = Instant::now();
    let s = tr.begin("rfid.simulate");
    let dep = Deployment::simulate(deployment_config(seed, PEOPLE, OBJECTS, TICKS));
    tr.end(s);
    let smooth_start = Instant::now();
    let s = tr.begin("hmm.smooth");
    let markov = dep.smoothed_database();
    tr.end(s);
    let smooth_s = smooth_start.elapsed().as_secs_f64();
    let s = tr.begin("model.build");
    let safe = safe_db(SAFE_TAGS, SAFE_TICKS, seed ^ 0x5afe);
    let hard = sampler_db(SAMPLER_TICKS, seed ^ 0x4a2d);
    tr.end(s);
    let inputs = Inputs {
        markov,
        tags: dep.tag_names(),
        safe,
        hard,
    };
    (inputs, build_start.elapsed().as_secs_f64(), smooth_s)
}

fn parse(db: &Database, src: &str, tr: &mut Tracer) -> Result<NormalQuery, String> {
    let s = tr.begin("query.parse");
    let q = parse_and_validate(db.catalog(), db.interner(), src).map_err(|e| format!("{src}: {e}"));
    let nq = q.map(|q| NormalQuery::from_query(&q));
    tr.end(s);
    nq
}

/// Every μ series of one batch, in a fixed order, plus layer figures.
struct Batch {
    series: Vec<Vec<f64>>,
    /// Latency of each series, ms.
    series_ms: Vec<f64>,
    extended_chains: usize,
    sampler_worlds: usize,
}

fn run_batch(x: &Inputs, tr: &mut Tracer) -> Result<Batch, String> {
    let mut series = Vec::with_capacity(x.tags.len() + 2 + HARD.len());
    let horizon = x.markov.horizon();
    let root = tr.begin("batch");
    // Each μ series is one answered query: its latency runs from its
    // parse to its last value.
    let mut series_ms = Vec::with_capacity(series.capacity());
    let mut lap = Instant::now();
    let mut done = |series_ms: &mut Vec<f64>| {
        series_ms.push(lap.elapsed().as_secs_f64() * 1e3);
        lap = Instant::now();
    };
    for tag in &x.tags {
        let nq = parse(&x.markov, &q1(tag), tr)?;
        let s = tr.begin("compile.regular");
        let eval = RegularEvaluator::new(&x.markov, &nq).map_err(|e| e.to_string());
        tr.end(s);
        let s = tr.begin("regular.eval");
        series.push(eval?.prob_series(&x.markov, horizon));
        tr.end(s);
        done(&mut series_ms);
    }
    let nq = parse(&x.markov, Q2, tr)?;
    let s = tr.begin("compile.extended");
    let eval = ExtendedRegularEvaluator::new(&x.markov, &nq).map_err(|e| e.to_string());
    tr.end(s);
    let eval = eval?;
    let extended_chains = eval.n_chains();
    let s = tr.begin("extended.eval");
    series.push(eval.prob_series(&x.markov, horizon));
    tr.end(s);
    done(&mut series_ms);

    let nq = parse(&x.safe, SAFE_QUERY, tr)?;
    let s = tr.begin("compile.safeplan");
    let exec = compile_safe_plan(x.safe.catalog(), &nq)
        .map_err(|e| e.to_string())
        .and_then(|plan| SafePlanExecutor::new(&x.safe, &plan).map_err(|e| e.to_string()));
    tr.end(s);
    let s = tr.begin("safeplan.eval");
    let safe = exec?
        .prob_series(x.safe.horizon())
        .map_err(|e| e.to_string());
    tr.end(s);
    series.push(safe?);
    done(&mut series_ms);

    let mut sampler_worlds = 0;
    for (i, (_, src)) in HARD.iter().enumerate() {
        let nq = parse(&x.hard, src, tr)?;
        // Construction draws the worlds (and, for h2, evaluates them on
        // the semantic fallback), so the sampler's span covers it.
        let span = tr.begin(LAYERS[8 + i]);
        let s = tr.begin("compile.sampler");
        let sampler = Sampler::with_config(&x.hard, &nq, SAMPLER).map_err(|e| e.to_string());
        tr.end(s);
        let sampler = sampler?;
        sampler_worlds = sampler.n_samples();
        series.push(sampler.prob_series(&x.hard, x.hard.horizon()));
        tr.end(span);
        done(&mut series_ms);
    }
    tr.end(root);
    Ok(Batch {
        series,
        series_ms,
        extended_chains,
        sampler_worlds,
    })
}

/// Largest absolute difference between two series (∞ on length mismatch).
fn max_err(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Checks every evaluator class against a reference path the repository
/// already has, on slices small enough for the possible-worlds oracle.
fn oracle_checks(seed: u64, report: &mut Report) -> Result<(), String> {
    // Markov: one tag's smoothed stream cut to its first three steps,
    // with probabilities below 1e-2 pruned so that the oracle enumerates
    // a few hundred worlds rather than |domain|^3.
    let dep = Deployment::simulate(deployment_config(seed, PEOPLE, OBJECTS, TICKS));
    let full = dep.smoothed_database();
    let tag = &dep.tag_names()[0];
    let mut slice = dep.base_database();
    let stream = &full.streams()[0];
    let cut = Stream::markov(
        stream.id().clone(),
        stream.domain().clone(),
        stream.marginal_at(0),
        (0..2).map(|t| stream.cpt_at(t)).collect(),
    )
    .map_err(|e| e.to_string())?
    .pruned(1e-2);
    slice.add_stream(cut).map_err(|e| e.to_string())?;
    let mut untraced = Tracer::new(false, Instant::now());
    for (name, src, extended) in [("q1", q1(tag), false), ("q2", Q2.to_owned(), true)] {
        let q = parse_and_validate(slice.catalog(), slice.interner(), &src)
            .map_err(|e| e.to_string())?;
        let exact = lahar_query::prob_series(&slice, &q).map_err(|e| e.to_string())?;
        let nq = parse(&slice, &src, &mut untraced)?;
        let got = if extended {
            ExtendedRegularEvaluator::new(&slice, &nq)
                .map_err(|e| e.to_string())?
                .prob_series(&slice, slice.horizon())
        } else {
            RegularEvaluator::new(&slice, &nq)
                .map_err(|e| e.to_string())?
                .prob_series(&slice, slice.horizon())
        };
        let err = max_err(&got, &exact);
        check(
            report,
            &format!("archive.{name}_matches_oracle"),
            err <= 1e-9,
            err,
            1e-9,
        );
    }
    // Safe plan: one tag's R/S streams and the witness, three steps.
    let small = safe_db(1, 3, seed ^ 0x5afe);
    let q = parse_and_validate(small.catalog(), small.interner(), SAFE_QUERY)
        .map_err(|e| e.to_string())?;
    let exact = lahar_query::prob_series(&small, &q).map_err(|e| e.to_string())?;
    let nq = NormalQuery::from_query(&q);
    let plan = compile_safe_plan(small.catalog(), &nq).map_err(|e| e.to_string())?;
    let got = SafePlanExecutor::new(&small, &plan)
        .map_err(|e| e.to_string())?
        .prob_series(small.horizon())
        .map_err(|e| e.to_string())?;
    let err = max_err(&got, &exact);
    check(
        report,
        "archive.safe_matches_oracle",
        err <= 1e-9,
        err,
        1e-9,
    );
    // Sampler: within ε of the exact answer on three steps (the shortest
    // horizon on which h3 and h4 can fire). The check
    // runs at the workload's ε with δ = 1e-6, so that by Hoeffding's
    // bound a correct sampler fails it on fewer than one seed in 10^5.
    let config = SamplerConfig {
        delta: 1e-6,
        ..SAMPLER
    };
    let small = sampler_db(3, seed ^ 0x4a2d);
    for (name, src) in HARD {
        let q = parse_and_validate(small.catalog(), small.interner(), src)
            .map_err(|e| e.to_string())?;
        let exact = lahar_query::prob_series(&small, &q).map_err(|e| e.to_string())?;
        let nq = NormalQuery::from_query(&q);
        let got = Sampler::with_config(&small, &nq, config)
            .map_err(|e| e.to_string())?
            .prob_series(&small, small.horizon());
        let err = max_err(&got, &exact);
        check(
            report,
            &format!("archive.sampler_{name}_within_epsilon"),
            err <= SAMPLER.epsilon,
            err,
            SAMPLER.epsilon,
        );
    }
    Ok(())
}

fn check(report: &mut Report, name: &str, ok: bool, err: f64, bound: f64) {
    report.attempted += 1;
    if !ok {
        report.failed += 1;
    }
    report.check(name, ok, format!("max |err| {err:e} (bound {bound:e})"));
}

/// What one repeat measured.
struct Repeat {
    traced: bool,
    setup_s: f64,
    build_s: f64,
    smooth_s: f64,
    batch_s: f64,
    series_ms: Vec<f64>,
    n_tags: usize,
    horizon: usize,
    extended_chains: usize,
    sampler_worlds: usize,
    tracer: Tracer,
}

pub fn run(
    args: &Args,
    budget: Duration,
    process_start: Instant,
    report: &mut Report,
) -> Result<(), String> {
    let mut repeats: Vec<Repeat> = Vec::new();
    // The first batch's bits per deployment.
    let mut first: Vec<Option<Vec<Vec<u64>>>> = vec![None; DEPLOYMENTS as usize];
    let mut mismatched = 0u64;
    let mut setup_from = process_start;
    let mut measure_start = None;
    loop {
        // A traced run alternates whole cycles of deployments, untraced
        // and traced, so that the overhead pairs compare like batches.
        let traced = args.trace && (repeats.len() as u64 / DEPLOYMENTS) % 2 == 1;
        let mut tr = Tracer::new(traced, setup_from);
        let s = tr.begin("setup");
        let deployment = repeats.len() as u64 % DEPLOYMENTS;
        let seed = args.seed.wrapping_mul(DEPLOYMENTS).wrapping_add(deployment);
        let (inputs, build_s, smooth_s) = set_up(seed, &mut tr);
        tr.end(s);
        let setup_s = setup_from.elapsed().as_secs_f64();
        let t0 = Instant::now();
        measure_start.get_or_insert(t0);
        let batch = run_batch(&inputs, &mut tr)?;
        let batch_s = t0.elapsed().as_secs_f64();
        // Every batch must give the same bits as the first on its
        // deployment.
        let bits: Vec<Vec<u64>> = batch
            .series
            .iter()
            .map(|s| s.iter().map(|p| p.to_bits()).collect())
            .collect();
        report.attempted += bits.len() as u64;
        match &first[deployment as usize] {
            None => first[deployment as usize] = Some(bits),
            Some(f) => {
                let diff = f.iter().zip(&bits).filter(|(a, b)| a != b).count() as u64;
                mismatched += diff + (f.len() as u64).abs_diff(bits.len() as u64);
            }
        }
        repeats.push(Repeat {
            traced,
            setup_s,
            build_s,
            smooth_s,
            batch_s,
            series_ms: batch.series_ms,
            n_tags: inputs.tags.len(),
            horizon: inputs.markov.horizon() as usize,
            extended_chains: batch.extended_chains,
            sampler_worlds: batch.sampler_worlds,
            tracer: tr,
        });
        let done = measure_start.is_some_and(|m| m.elapsed() >= budget);
        let cycle_done = (repeats.len() as u64).is_multiple_of(DEPLOYMENTS);
        if done && (!args.trace || (cycle_done && repeats.len() as u64 >= 2 * DEPLOYMENTS)) {
            break;
        }
        setup_from = Instant::now();
    }
    report.mark_peak_rss();
    report.failed += mismatched;
    report.check(
        "archive.batches_repeat_bit_identically",
        mismatched == 0,
        format!(
            "{} batches, {mismatched} series differ from the first",
            repeats.len()
        ),
    );
    oracle_checks(args.seed, report)?;
    report.repeats = repeats.iter().filter(|r| !r.traced).count();
    summarise(args, &repeats, report);
    if args.trace {
        let mut all = Tracer::new(true, process_start);
        for r in repeats {
            all.absorb(r.tracer);
        }
        let path = args.trace_path();
        crate::spans::write_chrome_trace(&path, all.spans()).map_err(|e| e.to_string())?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(())
}

const LAYERS: [&str; 12] = [
    "query.parse",
    "compile.regular",
    "compile.extended",
    "compile.safeplan",
    "compile.sampler",
    "regular.eval",
    "extended.eval",
    "safeplan.eval",
    "sampler.eval.h1",
    "sampler.eval.h2",
    "sampler.eval.h3",
    "sampler.eval.h4",
];

fn summarise(args: &Args, repeats: &[Repeat], report: &mut Report) {
    let untraced: Vec<&Repeat> = repeats.iter().filter(|r| !r.traced).collect();
    let series_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.series_ms.iter().copied())
        .collect();
    let batch: Vec<f64> = untraced.iter().map(|r| r.batch_s).collect();
    let batch_s = report.named("batch_s", "s", &batch);
    // Every batch answers the same queries, so series per second is
    // their count over the median batch, which one slow batch does not
    // move. Throughput is a per-layer number on every workload.
    let per_s = report.named_value(
        "series_per_s",
        "series/s",
        series_ms.len() as f64 / untraced.len().max(1) as f64 / batch_s.max(1e-9),
    );
    if !args.trace {
        let setup: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
        let setup_s = report.named("setup_s", "s", &setup);
        let p50 = report.named_value("series_p50_ms", "ms", percentile(&series_ms, 50.0));
        report.named_value("series_p99_ms", "ms", percentile(&series_ms, 99.0));
        report.result("setup_s", setup_s, "s");
        report.result("latency_p50_ms", p50, "ms");
        return;
    }
    report.result("throughput_per_s", per_s, "1/s");
    // The tail is a per-layer number, from the untraced repeats.
    let p99 = report.named_value("series_p99_ms", "ms", percentile(&series_ms, 99.0));
    report.result("latency_p99_ms", p99, "ms");
    let traced: Vec<&Repeat> = repeats.iter().filter(|r| r.traced).collect();
    let per = |f: &dyn Fn(&Repeat) -> f64| -> Vec<f64> { traced.iter().map(|r| f(r)).collect() };
    let build_s = report.named("model.build_s", "s", &per(&|r| r.build_s));
    report.named("hmm.smooth_s", "s", &per(&|r| r.smooth_s));
    let layer = |r: &Repeat, name: &str| layers(r.tracer.spans()).remove(name).unwrap_or_default();
    report.named(
        "query.parse_us",
        "us",
        &per(&|r| {
            let l = layer(r, "query.parse");
            l.total_ns as f64 / l.count.max(1) as f64 / 1e3
        }),
    );
    let compile_ms = report.named(
        "engine.compile_ms",
        "ms",
        &per(&|r| {
            LAYERS[1..4]
                .iter()
                .map(|l| layer(r, l).total_ns as f64 / 1e6)
                .sum()
        }),
    );
    let parse_ms = median(&per(&|r| layer(r, "query.parse").total_ns as f64 / 1e6));
    report.named(
        "regular.eval_s",
        "s",
        &per(&|r| layer(r, "regular.eval").total_ns as f64 / 1e9),
    );
    report.named(
        "regular.objects_per_s",
        "objects/s",
        &per(&|r| (r.n_tags * r.horizon) as f64 / (layer(r, "regular.eval").total_ns as f64 / 1e9)),
    );
    report.named(
        "extended.eval_s",
        "s",
        &per(&|r| layer(r, "extended.eval").total_ns as f64 / 1e9),
    );
    report.named_value(
        "extended.chains",
        "count",
        traced.last().map_or(0, |r| r.extended_chains) as f64,
    );
    report.named(
        "safeplan.eval_s",
        "s",
        &per(&|r| layer(r, "safeplan.eval").total_ns as f64 / 1e9),
    );
    let sampler_s = per(&|r| {
        ["h1", "h2", "h3", "h4"]
            .iter()
            .map(|h| layer(r, &format!("sampler.eval.{h}")).total_ns as f64 / 1e9)
            .sum()
    });
    report.named("sampler.eval_s", "s", &sampler_s);
    report.named(
        "sampler.compile_ms",
        "ms",
        &per(&|r| layer(r, "compile.sampler").total_ns as f64 / 1e6),
    );
    for (i, h) in ["h1", "h2", "h3", "h4"].iter().enumerate() {
        report.named(
            &format!("sampler.worlds_per_s.{h}"),
            "worlds/s",
            &per(&|r| {
                (r.sampler_worlds * SAMPLER_TICKS) as f64
                    / (layer(r, LAYERS[8 + i]).total_ns as f64 / 1e9)
            }),
        );
    }
    // Layer accounting: self time of each layer under `batch` against the
    // batches' wall time.
    let mut wall = 0.0;
    let mut self_ns = vec![0.0; LAYERS.len()];
    for r in &traced {
        let ls = layers(r.tracer.spans());
        wall += ls.get("batch").map_or(0, |l| l.total_ns) as f64;
        for (acc, name) in self_ns.iter_mut().zip(LAYERS) {
            *acc += ls.get(name).map_or(0, |l| l.self_ns) as f64;
        }
    }
    for (name, ns) in LAYERS.iter().zip(&self_ns) {
        report.named_value(&format!("self_share.{name}"), "ratio", ns / wall.max(1.0));
    }
    let attributed: f64 = self_ns.iter().sum();
    let unattributed = report.named_value(
        "archive-markov.unattributed_share",
        "ratio",
        1.0 - attributed / wall.max(1.0),
    );
    let eval_share: f64 = self_ns[4..].iter().sum::<f64>() / wall.max(1.0);
    let largest = self_ns.iter().copied().fold(0.0, f64::max) / wall.max(1.0);
    let pairs: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, t)| (t.batch_s / u.batch_s - 1.0) * 100.0)
        .collect();
    let overhead = report.named("trace.overhead_pct", "%", &pairs);
    let overhead_iqr = crate::stats::iqr(&pairs);
    report.named_value("trace.overhead_iqr_pct", "%", overhead_iqr);

    report.result("unattributed_share", unattributed, "ratio");
    report.result("trace.overhead_pct", overhead, "%");
    report.result("trace.overhead_iqr_pct", overhead_iqr, "%");
    report.result("model.build_s", build_s, "s");
    report.result("query.compile_ms", parse_ms + compile_ms, "ms");
    report.result("engine.busy_share", eval_share, "ratio");
    report.result("largest_layer_share", largest, "ratio");
}
