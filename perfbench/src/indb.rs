//! `indb-scoring`: one caller in a closed loop runs a fixed, seeded
//! sequence of `InferenceSession::infer(model, table, "features", arch)`
//! queries against Fraud-FC-256 and Fraud-FC-512 feature tables.
//!
//! The §7.1 threshold is scaled to 1 MiB, so Adaptive keeps queries of up
//! to 32 rows on the UDF path and sends 1024-row queries to block
//! relations. About a quarter of the small queries are forced
//! relation-centric, the path the degradation ladder takes under OOM.
//! Relation-centric queries currently leave their pages in the temporary
//! database. So the run proceeds in rounds: each round sets up a fresh
//! session, fills its buffer pool, and runs the next queries of the
//! sequence until the database would pass [`ROUND_BUDGET_BYTES`] at the
//! growth measured per query kind; a disk guard checks for that much free
//! space before each round.

use crate::counters::Counters;
use crate::oracle::{self, DENSE_TOL, RELATIONAL_TOL};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats::{mean, percentile, sorted};
use crate::trace::Tracer;
use crate::{pages_mib, relational_layers, Args, Run};
use relserve_core::exec::{hybrid, relation_centric, udf_centric};
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::{init::seeded_rng, zoo, Activation, Layer, Model};
use relserve_relational::tensor_table::TensorOpStats;
use relserve_relational::{Column, DataType, Schema, TensorTable, Tuple, Value};
use relserve_runtime::AdmissionPolicy;
use relserve_storage::PAGE_SIZE;
use relserve_tensor::parallel::Parallelism;
use relserve_tensor::BlockingSpec;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fixed seed of the model weights: the workload seed varies inputs only.
const MODEL_SEED: u64 = 0x5EED_0002;
/// Query sizes in rows, and the share of queries of each size. The shares
/// put the median query in the middle of one kind's latencies (Fraud-FC-256
/// over 32 rows on the UDF path, about 45-56 % of the sorted queries), not
/// on the gap between two kinds, where it would jump with the exact mix.
const SIZES: [usize; 3] = [1, 32, 1024];
const SIZE_SHARE: [f64; 3] = [0.6, 0.3, 0.1];
/// Feature tables per size (distinct inputs of the same size).
const VARIANTS: usize = 4;
/// Share of the small queries forced relation-centric.
const RELATIONAL_SHARE: f64 = 0.25;
/// The §7.1 operator threshold, scaled.
const THRESHOLD_BYTES: usize = 1 << 20;
/// Per-query latency limit behind `slo_pct`.
const LIMIT_MS: f64 = 20.0;
/// Size at which a round's temporary database is dropped and a fresh
/// session set up: one database never grows past it.
const ROUND_BUDGET_BYTES: u64 = 1 << 30;
/// Pages allocated past the buffer pool's capacity before timing starts.
const FILL_MARGIN_PAGES: u64 = 512;
/// Free space kept beyond the expected growth.
const DISK_MARGIN_BYTES: u64 = 512 << 20;
/// Length of the seeded query sequence; rounds consume it in order.
const MAX_QUERIES: usize = 1_000_000;
/// Upcoming queries scanned for one of each kind to calibrate at set-up.
const CALIBRATION_QUERIES: usize = 10_000;
/// In a traced run every this-many-th query is replayed step by step.
const REPLAY_EVERY: usize = 8;

const MODELS: [&str; 2] = ["Fraud-FC-256", "Fraud-FC-512"];

/// One query of the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Index into [`MODELS`].
    pub model: usize,
    /// Index into [`SIZES`].
    pub size: usize,
    /// Which feature table of that size.
    pub variant: usize,
    /// Forced relation-centric instead of Adaptive.
    pub relational: bool,
}

impl Query {
    fn table(&self) -> String {
        format!("features_{}_{}", SIZES[self.size], self.variant)
    }

    fn architecture(&self) -> Architecture {
        if self.relational {
            Architecture::RelationCentric
        } else {
            Architecture::Adaptive
        }
    }

    /// Index of this query's kind for per-kind calibration.
    fn kind(&self) -> usize {
        (self.model * SIZES.len() + self.size) * 2 + usize::from(self.relational)
    }
}

/// The seeded query sequence.
pub fn query_mix(seed: u64, n: usize) -> Vec<Query> {
    let mut r = SplitMix64::stream(seed, 200);
    (0..n)
        .map(|_| {
            let u = r.unit();
            let size = if u < SIZE_SHARE[0] {
                0
            } else if u < SIZE_SHARE[0] + SIZE_SHARE[1] {
                1
            } else {
                2
            };
            Query {
                model: r.below(MODELS.len()),
                size,
                variant: r.below(VARIANTS),
                relational: SIZES[size] <= 32 && r.unit() < RELATIONAL_SHARE,
            }
        })
        .collect()
}

/// A loaded session with its oracle answers.
struct Setup {
    session: InferenceSession,
    models: Vec<Model>,
    /// Oracle logits per `[model][size][variant]`.
    oracle: Vec<Vec<Vec<Vec<f32>>>>,
    /// Pages one query of each kind allocates, measured at set-up.
    kind_pages: Vec<u64>,
    /// Pages one traced replay of each kind allocates (0 when untraced).
    replay_pages: Vec<u64>,
}

/// Session open, model and table load, oracle, then warm-up: every query
/// kind once (measuring the pages it allocates, and when `traced` the pages
/// its replay allocates) and enough small relation-centric queries to fill
/// the buffer pool, so the timed queries meet the steady state of a
/// long-running session that evicts.
fn setup(seed: u64, upcoming: &[(usize, Query)], traced: bool) -> Result<Setup, String> {
    let config = SessionConfig::builder()
        .memory_threshold_bytes(THRESHOLD_BYTES)
        .build()
        .map_err(|e| e.to_string())?;
    let session = InferenceSession::open(config).map_err(|e| e.to_string())?;
    let mut rng = seeded_rng(MODEL_SEED);
    let mut biases = SplitMix64::stream(MODEL_SEED, 3);
    let models = vec![
        oracle::with_biases(
            zoo::fraud_fc_256(&mut rng).map_err(|e| e.to_string())?,
            &mut biases,
        ),
        oracle::with_biases(
            zoo::fraud_fc_512(&mut rng).map_err(|e| e.to_string())?,
            &mut biases,
        ),
    ];
    for m in &models {
        session.load_model(m.clone()).map_err(|e| e.to_string())?;
    }
    let width = models[0].input_shape().num_elements();
    let mut inputs = SplitMix64::stream(seed, 2);
    let mut oracle = vec![vec![Vec::new(); SIZES.len()]; models.len()];
    for (si, rows) in SIZES.iter().enumerate() {
        for v in 0..VARIANTS {
            let name = format!("features_{rows}_{v}");
            let schema = Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("features", DataType::Vector),
            ]);
            session
                .create_table(&name, schema)
                .map_err(|e| e.to_string())?;
            let data = inputs.features(rows * width);
            let tuples: Vec<Tuple> = data
                .chunks(width)
                .enumerate()
                .map(|(i, f)| Tuple::new(vec![Value::Int(i as i64), Value::Vector(f.to_vec())]))
                .collect();
            session.insert(&name, &tuples).map_err(|e| e.to_string())?;
            for (mi, m) in models.iter().enumerate() {
                oracle[mi][si].push(oracle::logits(m, &data, *rows));
            }
        }
    }
    let mut s = Setup {
        session,
        models,
        oracle,
        kind_pages: vec![0; MODELS.len() * SIZES.len() * 2],
        replay_pages: vec![0; MODELS.len() * SIZES.len() * 2],
    };
    let mut seen = vec![false; s.kind_pages.len()];
    for (_, q) in upcoming.iter().take(CALIBRATION_QUERIES) {
        if !seen[q.kind()] {
            seen[q.kind()] = true;
            let before = s.session.pool().disk().num_pages();
            if !execute(&s, q)?.1 {
                return Err(format!("warm-up {q:?} disagrees with the oracle"));
            }
            let after = s.session.pool().disk().num_pages();
            s.kind_pages[q.kind()] = after - before;
            if traced {
                let mut scratch = Tracer::new(Instant::now());
                Replay::new(&mut scratch).replay(&s, q, 0, Duration::ZERO)?;
                s.replay_pages[q.kind()] = s.session.pool().disk().num_pages() - after;
            }
        }
    }
    let full = s.session.pool().capacity() as u64 + FILL_MARGIN_PAGES;
    let mut v = 0;
    while s.session.pool().disk().num_pages() < full {
        let q = Query {
            model: 0,
            size: 0,
            variant: v % VARIANTS,
            relational: true,
        };
        if !execute(&s, &q)?.1 {
            return Err(format!("warm-up {q:?} disagrees with the oracle"));
        }
        v += 1;
    }
    Ok(s)
}

/// Runs one query through `InferenceSession::infer` and checks it against
/// the oracle: (latency, correct, rows).
fn execute(s: &Setup, q: &Query) -> Result<(Duration, bool, usize), String> {
    let t0 = Instant::now();
    let outcome = s
        .session
        .infer(MODELS[q.model], &q.table(), "features", q.architecture());
    let elapsed = t0.elapsed();
    let outcome = match outcome {
        Ok(o) => o,
        Err(_) => return Ok((elapsed, false, 0)),
    };
    let relational = q.relational
        || outcome.degraded_to.is_some()
        || outcome
            .plan
            .as_ref()
            .is_some_and(|p| relational_layers(p) > 0);
    let tol = if relational {
        RELATIONAL_TOL
    } else {
        DENSE_TOL
    };
    let ok = outcome
        .output
        .into_dense()
        .map(|t| oracle::logits_ok(&s.oracle[q.model][q.size][q.variant], t.data(), tol))
        .unwrap_or(false);
    Ok((elapsed, ok, SIZES[q.size]))
}

/// What the timed queries measured, summed over rounds.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    /// Latencies (ms) of the correct answers by query kind.
    by_kind: BTreeMap<usize, Vec<f64>>,
    within_limit: u64,
    rows: u64,
    secs: f64,
    outcome: Outcome,
    counters: Counters,
    rounds: usize,
    governor_peak: usize,
    /// Largest page count a round's temporary database reached.
    peak_db_pages: u64,
}

impl Phase {
    /// Runs `queries` in order until `secs` of this phase have passed in
    /// total; returns how many ran.
    fn run(
        &mut self,
        s: &Setup,
        queries: &[(usize, Query)],
        secs: f64,
        mut replay: Option<&mut Replay>,
    ) -> Result<usize, String> {
        s.session.governor().reset_peak();
        let start = Instant::now();
        let budget = Duration::from_secs_f64((secs - self.secs).max(0.0));
        let mut ran = 0;
        for (id, q) in queries {
            if start.elapsed() >= budget {
                break;
            }
            let before = Counters::take(&s.session);
            let t0 = Instant::now();
            let (latency, ok, rows) = execute(s, q)?;
            let t1 = Instant::now();
            let after = Counters::take(&s.session);
            self.counters.accumulate(&before, &after);
            self.outcome.attempted += 1;
            if ok {
                let ms = latency.as_secs_f64() * 1e3;
                self.latency_ms.push(ms);
                self.by_kind.entry(q.kind()).or_default().push(ms);
                self.rows += rows as u64;
                if ms <= LIMIT_MS {
                    self.within_limit += 1;
                }
            } else {
                self.outcome.failed += 1;
                self.outcome.wrong += 1;
            }
            if let Some(r) = replay.as_deref_mut() {
                let root = r.tracer.record("query", t0, t1, None, *id as u64);
                r.tracer
                    .count(root, "pages", after.pages.saturating_sub(before.pages));
                if id % REPLAY_EVERY == 0 {
                    r.replay(s, q, *id as u64, latency)?;
                }
            }
            ran += 1;
        }
        self.secs += start.elapsed().as_secs_f64();
        self.rounds += 1;
        self.governor_peak = self.governor_peak.max(s.session.governor().peak());
        self.peak_db_pages = self.peak_db_pages.max(s.session.pool().disk().num_pages());
        Ok(ran)
    }

    /// Median query latency, ms.
    fn p50(&self) -> Result<f64, String> {
        let lat = sorted(self.latency_ms.clone());
        percentile(&lat, 0.5)
            .ok_or_else(|| format!("only {} queries: too few for a median", lat.len()))
    }
}

/// Step-by-step replays of sampled queries, with their timings.
struct Replay<'t> {
    tracer: &'t mut Tracer,
    /// Durations (µs) of every replayed call, by span name.
    us: BTreeMap<&'static str, Vec<f64>>,
    relational_layers: Vec<f64>,
    /// `infer` minus its features scan and executor, per replayed query.
    overhead_us: Vec<f64>,
    rel: TensorOpStats,
}

impl<'t> Replay<'t> {
    fn new(tracer: &'t mut Tracer) -> Self {
        Replay {
            tracer,
            us: BTreeMap::new(),
            relational_layers: Vec::new(),
            overhead_us: Vec::new(),
            rel: TensorOpStats::default(),
        }
    }

    /// Times `f` as a span named `name` under `parent`; returns its result
    /// and duration in µs.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.tracer.record(name, t0, t1, Some(parent), req);
        let us = (t1 - t0).as_secs_f64() * 1e6;
        self.us.entry(name).or_default().push(us);
        (out, us)
    }

    /// Mean µs of the spans named `name`, 0 when there were none.
    fn mean_us(&self, name: &str) -> f64 {
        self.us.get(name).map_or(0.0, |v| mean(v))
    }

    /// Re-runs `q` decomposed into the public calls the session makes:
    /// features, plan, admit, the executor, then each dense layer as block
    /// relation operators and as a dense matmul, then the serial oracle.
    fn replay(&mut self, s: &Setup, q: &Query, req: u64, infer: Duration) -> Result<(), String> {
        let session = &s.session;
        let model = &s.models[q.model];
        let block = session.config().block_size;
        let root = self.tracer.open("replay", None, req);
        let (batch, features_us) = self.span("storage.heap.scan", root, req, || {
            session.features(&q.table(), "features")
        });
        let batch = batch.map_err(|e| e.to_string())?;
        let plan = if q.relational {
            None
        } else {
            let (plan, _) = self.span("core.plan", root, req, || {
                session.plan(MODELS[q.model], SIZES[q.size])
            });
            let plan = plan.map_err(|e| e.to_string())?;
            self.relational_layers.push(relational_layers(&plan) as f64);
            Some(plan)
        };
        let (ctx, _) = self.span("runtime.admit", root, req, || {
            session.coordinator().context_with(
                1,
                session.governor().clone(),
                &AdmissionPolicy::default(),
            )
        });
        let ctx = ctx.map_err(|e| e.to_string())?;
        let pool = session.pool();
        let pages0 = pool.disk().num_pages();
        let exec_us = match &plan {
            None => {
                let (r, us) = self.span("core.exec.relation", root, req, || {
                    relation_centric::run(model, &batch, pool, block, &ctx)
                });
                self.rel.merge(r.map_err(|e| e.to_string())?.1);
                us
            }
            Some(plan) => {
                let (r, us) = self.span("core.exec.hybrid", root, req, || {
                    hybrid::run(model, &batch, plan, pool, block, &ctx)
                });
                self.rel.merge(r.map_err(|e| e.to_string())?.1.rel_stats);
                if relational_layers(plan) == 0 {
                    // An all-UDF plan is the UDF-centric executor.
                    let (r, _) = self.span("core.exec.udf", root, req, || {
                        udf_centric::run(model, &batch, &ctx)
                    });
                    r.map_err(|e| e.to_string())?;
                }
                us
            }
        };
        self.overhead_us
            .push((infer.as_secs_f64() * 1e6 - features_us - exec_us).max(0.0));

        // Each dense layer as block-relation operators, then as a matmul.
        let par = ctx.parallelism();
        let spec = BlockingSpec::square(block);
        let mut x = batch.clone();
        for (li, layer) in model.layers().iter().enumerate() {
            let Layer::Dense {
                weight,
                bias,
                activation,
            } = layer
            else {
                continue;
            };
            let layer_span = self.tracer.open("relational.layer", Some(root), req);
            let (xt, _) = self.span("relational.from_dense.x", layer_span, req, || {
                TensorTable::from_dense(pool.clone(), format!("replay{req}.{li}.x"), &x, spec)
            });
            let xt = xt.map_err(|e| e.to_string())?;
            let (wt, _) = self.span("relational.from_dense", layer_span, req, || {
                TensorTable::from_dense(pool.clone(), format!("replay{req}.{li}.w"), weight, spec)
            });
            let wt = wt.map_err(|e| e.to_string())?;
            let (prod, _) = self.span("relational.matmul_bt", layer_span, req, || {
                xt.matmul_bt_parallel(&wt, format!("replay{req}.{li}.xw"), &par)
            });
            let (prod, _) = prod.map_err(|e| e.to_string())?;
            let (biased, _) = self.span("relational.add_bias", layer_span, req, || {
                prod.add_bias(format!("replay{req}.{li}.b"), bias)
            });
            let biased = biased.map_err(|e| e.to_string())?;
            if *activation == Activation::Relu {
                let (mapped, _) = self.span("relational.map", layer_span, req, || {
                    biased.map(format!("replay{req}.{li}.a"), |v| v.max(0.0))
                });
                mapped.map_err(|e| e.to_string())?;
            }
            let wt_dense = weight.transpose().map_err(|e| e.to_string())?;
            let (mm, _) = self.span("tensor.matmul", layer_span, req, || {
                relserve_tensor::matmul::matmul(&x, &wt_dense)
            });
            mm.map_err(|e| e.to_string())?;
            self.tracer.close(layer_span);
            x = layer
                .forward(&x, &Parallelism::serial())
                .map_err(|e| e.to_string())?;
        }
        drop(ctx);
        let (fwd, _) = self.span("nn.forward", root, req, || {
            model.forward(&batch, &Parallelism::serial())
        });
        fwd.map_err(|e| e.to_string())?;
        self.tracer.count(
            root,
            "pages",
            pool.disk().num_pages().saturating_sub(pages0),
        );
        self.tracer.close(root);
        Ok(())
    }
}

fn report_phase(run: &mut Run, p: &Phase, label: &str) {
    let lat = sorted(p.latency_ms.clone());
    let fmt = |q: f64| percentile(&lat, q).map_or("n/a".to_string(), |v| format!("{v:.3} ms"));
    run.line(format!(
        "{label}: {} rounds, queries {} correct {} (n={}) p50 {} p99 {} within {LIMIT_MS} ms: {} rows/s {:.0} over {:.2} s",
        p.rounds,
        p.outcome.attempted,
        lat.len(),
        lat.len(),
        fmt(0.5),
        fmt(0.99),
        p.within_limit,
        p.rows as f64 / p.secs.max(1e-9),
        p.secs
    ));
    for (kind, lat) in &p.by_kind {
        let (model, size, relational) = (kind / 2 / SIZES.len(), kind / 2 % SIZES.len(), kind % 2);
        run.line(format!(
            "{label}: {} {} rows{}: n={} share {:.3} p50 {}",
            MODELS[model],
            SIZES[size],
            if relational == 1 {
                " forced relational"
            } else {
                ""
            },
            lat.len(),
            lat.len() as f64 / p.latency_ms.len().max(1) as f64,
            percentile(&sorted(lat.clone()), 0.5)
                .map_or("n/a".to_string(), |v| format!("{v:.4} ms"))
        ));
    }
    run.line(format!(
        "{label}: db growth of the timed queries {:.1} MiB ({} pages, {:.2} pages/query); largest round database {:.1} MiB of a {} MiB budget",
        pages_mib(p.counters.pages),
        p.counters.pages,
        p.counters.pages as f64 / p.outcome.attempted.max(1) as f64,
        pages_mib(p.peak_db_pages),
        ROUND_BUDGET_BYTES >> 20
    ));
}

/// The seeded query sequence with each query's index.
fn sequence(seed: u64) -> Vec<(usize, Query)> {
    query_mix(seed, MAX_QUERIES)
        .into_iter()
        .enumerate()
        .collect()
}

/// Runs `queries` in `stages` of (seconds, traced), each in rounds of
/// fresh sessions; replays every [`REPLAY_EVERY`]th query of a traced
/// stage into `replay`. Returns the stages' phases, the set-up time of
/// every round, and how many queries ran.
fn measure(
    seed: u64,
    queries: &[(usize, Query)],
    stages: &[(f64, bool)],
    replay: &mut Replay,
    run: &mut Run,
) -> Result<(Vec<Phase>, Vec<f64>, usize), String> {
    let mut phases: Vec<Phase> = Vec::new();
    let mut setup_times = Vec::new();
    let mut next = 0;
    let tmp = std::env::temp_dir();
    for &(secs, traced) in stages {
        let mut p = Phase::default();
        while p.secs < secs && next < queries.len() {
            let t0 = Instant::now();
            let s = setup(seed, &queries[next..], traced)?;
            setup_times.push(t0.elapsed().as_secs_f64());
            if setup_times.len() == 1 {
                run.meta("indb.block_size", s.session.config().block_size);
                run.meta("indb.pool_pages", s.session.pool().capacity());
            }
            // Size this round from the growth each query kind, and each
            // replay of a traced run, showed.
            let used = s.session.pool().disk().num_pages() * PAGE_SIZE as u64;
            let room = ROUND_BUDGET_BYTES.saturating_sub(used);
            let mut growth = 0u64;
            let mut end = next;
            while end < queries.len() {
                let (id, q) = &queries[end];
                let mut pages = s.kind_pages[q.kind()];
                if traced && id % REPLAY_EVERY == 0 {
                    pages += s.replay_pages[q.kind()];
                }
                let bytes = pages * PAGE_SIZE as u64;
                if growth + bytes > room {
                    break;
                }
                growth += bytes;
                end += 1;
            }
            if end == next {
                return Err(format!(
                    "a {ROUND_BUDGET_BYTES}-byte round cannot hold one query"
                ));
            }
            // Disk guard: this round's expected growth must fit beside a margin.
            let free = crate::sys::free_bytes(&tmp)
                .ok_or_else(|| format!("cannot read free space of {}", tmp.display()))?;
            if free < growth + DISK_MARGIN_BYTES {
                return Err(format!(
                    "not enough disk in {}: a round is expected to grow the temporary database by {} MiB \
                     (relation-centric queries do not yet free their pages) and {} MiB more are kept free, \
                     but only {} MiB are available",
                    tmp.display(),
                    growth >> 20,
                    DISK_MARGIN_BYTES >> 20,
                    free >> 20
                ));
            }
            next += p.run(
                &s,
                &queries[next..end],
                secs,
                traced.then_some(&mut *replay),
            )?;
        }
        phases.push(p);
    }
    Ok((phases, setup_times, next))
}

fn record_meta(run: &mut Run) {
    run.meta("indb.threshold_bytes", THRESHOLD_BYTES);
    run.meta("indb.latency_limit_ms", LIMIT_MS);
    run.meta("indb.relational_share_small", RELATIONAL_SHARE);
    run.meta("indb.round_budget_mib", ROUND_BUDGET_BYTES >> 20);
}

/// Records the storage, relational and executor metrics of a traced
/// phase and its replays.
fn record_layers(run: &mut Run, traced: &Phase, replay: &Replay) {
    run.line(format!(
        "in-db: {} replays, every {REPLAY_EVERY}th query",
        replay.overhead_us.len()
    ));
    let v = &mut run.values;
    traced.counters.record_storage(v, traced.outcome.attempted);
    v.set("runtime.admit_us", replay.mean_us("runtime.admit"));
    v.set("core.exec.udf_us", replay.mean_us("core.exec.udf"));
    v.set(
        "core.exec.relation_us",
        replay.mean_us("core.exec.relation"),
    );
    v.set("core.exec.hybrid_us", replay.mean_us("core.exec.hybrid"));
    v.set("core.session_overhead_us", mean(&replay.overhead_us));
    v.set(
        "relational.from_dense_us",
        replay.mean_us("relational.from_dense"),
    );
    v.set(
        "relational.matmul_bt_us",
        replay.mean_us("relational.matmul_bt"),
    );
    v.set(
        "relational.add_bias_us",
        replay.mean_us("relational.add_bias"),
    );
    v.set("relational.map_us", replay.mean_us("relational.map"));
    v.set("relational.joins", replay.rel.joins as f64);
    v.set("relational.blocks_out", replay.rel.blocks_out as f64);
    v.set("relational.bytes_read", replay.rel.bytes_read as f64);
    v.set("relational.bytes_written", replay.rel.bytes_written as f64);
    v.set("storage.heap.scan_us", replay.mean_us("storage.heap.scan"));
}

/// The in-database layers, measured inside another workload's traced run:
/// `secs` of traced queries with their replays, whose spans go to
/// `tracer`. Records the metrics of [`record_layers`].
pub fn layers(seed: u64, secs: f64, run: &mut Run, tracer: &mut Tracer) -> Result<(), String> {
    record_meta(run);
    let mut replay = Replay::new(tracer);
    let (phases, setup_times, _) =
        measure(seed, &sequence(seed), &[(secs, true)], &mut replay, run)?;
    let p = &phases[0];
    run.line(format!(
        "in-db sub-phase setup: {} rounds, median {:.3} s",
        setup_times.len(),
        crate::stats::median(&setup_times).unwrap_or(0.0)
    ));
    report_phase(run, p, "in-db sub-phase");
    run.add(p.outcome);
    record_layers(run, p, &replay);
    Ok(())
}

/// Runs `indb-scoring`.
pub fn run(args: &Args, run: &mut Run) -> Result<(), String> {
    record_meta(run);
    let stages: &[(f64, bool)] = if args.trace {
        &[(args.seconds / 2.0, false), (args.seconds / 2.0, true)]
    } else {
        &[(args.seconds, false)]
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut replay = Replay::new(&mut tracer);
    let queries = sequence(args.seed);
    let (phases, mut setup_times, next) = measure(args.seed, &queries, stages, &mut replay, run)?;
    // Too few rounds for a median: set up until there are three.
    while setup_times.len() < 3 {
        let t0 = Instant::now();
        drop(setup(args.seed, &queries[next..], false)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    run.record_setup(&setup_times);
    run.meta("queries_run", next);
    for (p, label) in phases.iter().zip(["untraced", "traced"]) {
        report_phase(run, p, label);
        run.add(p.outcome);
    }
    let untraced = &phases[0];
    if !args.trace {
        run.values.set("p50_ms", untraced.p50()?);
        run.values.set(
            "slo_pct",
            100.0 * untraced.within_limit as f64 / untraced.outcome.attempted.max(1) as f64,
        );
        run.values
            .set("rows_per_s", untraced.rows as f64 / untraced.secs.max(1e-9));
        return Ok(());
    }

    let traced = &phases[1];
    record_layers(run, traced, &replay);
    let v = &mut run.values;
    traced.counters.record_runtime(v);
    v.set(
        "runtime.governor.peak_mib",
        traced.governor_peak as f64 / (1 << 20) as f64,
    );
    v.set("core.plan_us", replay.mean_us("core.plan"));
    v.set(
        "core.plan.relational_layers",
        mean(&replay.relational_layers),
    );
    v.set("nn.forward_us", replay.mean_us("nn.forward"));
    crate::tensor_metrics(run, 1024, 28, 512);
    let (base, traced_p50) = (untraced.p50()?, traced.p50()?);
    drop(replay);
    run.finish_trace(tracer, &base, &traced_p50);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_is_seeded() {
        let a = query_mix(11, 5000);
        assert_eq!(a, query_mix(11, 5000));
        assert_ne!(a, query_mix(12, 5000));
        // A prefix does not depend on the length asked for.
        assert_eq!(query_mix(11, 100)[..], a[..100]);
    }

    #[test]
    fn query_mix_has_the_stated_shares() {
        let a = query_mix(3, 20_000);
        let share =
            |f: &dyn Fn(&Query) -> bool| a.iter().filter(|q| f(q)).count() as f64 / a.len() as f64;
        assert!((share(&|q| q.size == 2) - 0.10).abs() < 0.02);
        assert!((share(&|q| q.model == 1) - 0.5).abs() < 0.02);
        assert!(a.iter().all(|q| !(q.relational && q.size == 2)));
        let small_relational = share(&|q| q.relational) / share(&|q| q.size < 2);
        assert!((small_relational - RELATIONAL_SHARE).abs() < 0.02);
    }
}
