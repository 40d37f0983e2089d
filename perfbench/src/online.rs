//! The online workloads: a `Server` on loopback driven over its wire
//! protocol by an open-loop Poisson generator. The traced run of
//! `online-fraud` adds a closed-loop saturation phase through `Client` and
//! a cache sub-phase on a second server with the semantic cache on.
//!
//! Load comes from one sender thread and one blocking reader per
//! connection, over at most two connections at a time. Every request is
//! timed from its *scheduled* send, so a stall in the generator or the
//! server counts against every request it delays.

use crate::counters::Counters;
use crate::oracle::{self, DENSE_TOL};
use crate::report::Outcome;
use crate::rng::{poisson_schedule, SplitMix64, Zipf};
use crate::stats::{mean, median, percentile, sorted, windowed};
use crate::trace::Tracer;
use crate::{Args, Run};
use relserve_core::{Architecture, InferenceSession, SessionConfig};
use relserve_nn::{init::seeded_rng, zoo, Model};
use relserve_runtime::Priority;
use relserve_serve::wire::{self, InferRequest, Request, Response};
use relserve_serve::{CacheConfig, Client, ServeConfig, Server, ServerHandle};
use relserve_vectoridx::{HnswIndex, VectorIndex};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which online workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-row Fraud-FC-256 at a third of saturation.
    Fraud,
    /// Interactive Fraud-FC-256 beside Batch-class 64-row Encoder-FC.
    Mixed,
    /// Zipf-repeated, partly jittered Fraud-FC-256 rows through the
    /// semantic cache: the cache sub-phase of the traced `online-fraud` run.
    Cached,
}

/// Fixed seed of the model weights: the workload seed varies inputs only.
const MODEL_SEED: u64 = 0x5EED_0001;
/// Distinct fraud rows the uniform streams draw from.
const FRAUD_POOL: usize = 4096;
/// Distinct 64-row Encoder-FC batches of `online-mixed`.
const ENCODER_POOL: usize = 8;
/// Entities of the Zipf stream of `online-cached`.
const ENTITIES: usize = 4096;
/// Zipf exponent of `online-cached`.
const ZIPF_S: f64 = 1.1;
/// Every this-many-th cached request carries a jittered row.
const JITTER_EVERY: usize = 8;
/// Jitter amplitude per feature.
const JITTER_EPS: f32 = 1e-3;
/// Outstanding requests of the closed-loop warm-up.
const WINDOW: usize = 64;
/// Outstanding requests of the saturation phase: enough for every
/// executor to hold a full fused batch with as many queued behind it.
const SAT_WINDOW: usize = 256;
/// Length of the traced run's saturation phase on `online-fraud`.
const SATURATION_SECS: f64 = 2.0;
/// Length of the traced run's cache sub-phase on `online-fraud`.
const CACHE_PHASE_SECS: f64 = 3.0;
/// Length of the in-database sub-phase of `online-mixed`'s traced run.
const INDB_SECS: f64 = 8.0;
/// Measurements of a run: one whose generator fell behind is reported
/// as invalid, without its numbers, and measured again up to this many
/// times in all before the run itself is invalid.
const ATTEMPTS: usize = 3;
/// How long readers wait for stragglers after the last scheduled send.
const DRAIN: Duration = Duration::from_secs(5);
/// Width of the windows whose median latency percentiles are reported.
const LATENCY_WINDOW_NS: u64 = 1_000_000_000;
/// Width of the windows whose median rate is reported.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// One request class: its own connection and Poisson stream.
#[derive(Debug, Clone, Copy)]
struct ClassSpec {
    label: &'static str,
    class: Priority,
    /// Index into the workload's pools.
    pool: usize,
    rate: f64,
    limit_ms: f64,
}

fn classes(kind: Kind) -> Vec<ClassSpec> {
    match kind {
        Kind::Fraud => vec![ClassSpec {
            label: "standard",
            class: Priority::Standard,
            pool: 0,
            rate: 20_000.0,
            limit_ms: 5.0,
        }],
        Kind::Mixed => vec![
            ClassSpec {
                label: "interactive",
                class: Priority::Interactive,
                pool: 0,
                rate: 2_000.0,
                limit_ms: 10.0,
            },
            ClassSpec {
                label: "batch",
                class: Priority::Batch,
                pool: 1,
                rate: 15.0,
                limit_ms: f64::INFINITY,
            },
        ],
        Kind::Cached => vec![ClassSpec {
            label: "standard",
            class: Priority::Standard,
            pool: 0,
            rate: 2_000.0,
            limit_ms: 5.0,
        }],
    }
}

/// Generated inputs of one model with their serial-oracle logits.
struct Pool {
    model: Arc<Model>,
    width: usize,
    /// Rows per request.
    rows: usize,
    outputs: usize,
    /// `items × rows × width` features.
    data: Vec<f32>,
    /// `items × rows × outputs` oracle logits.
    oracle: Vec<f32>,
    /// Entity of each item (`online-cached`); the item itself otherwise.
    group: Vec<u32>,
    /// Per entity, the classes an oracle argmax of any of its items takes:
    /// the answers a near cache hit may legitimately return.
    group_classes: Vec<u64>,
}

impl Pool {
    fn new(model: Arc<Model>, rows: usize, items: usize, rng: &mut SplitMix64) -> Self {
        let width = model.input_shape().num_elements();
        let outputs = model
            .output_shape()
            .expect("model output shape")
            .num_elements();
        let mut pool = Pool {
            model,
            width,
            rows,
            outputs,
            data: Vec::new(),
            oracle: Vec::new(),
            group: Vec::new(),
            group_classes: Vec::new(),
        };
        let data = rng.features(items * rows * width);
        pool.push(&data, (0..items as u32).collect());
        pool
    }

    fn items(&self) -> usize {
        self.group.len()
    }

    /// Appends items (with their oracle logits) belonging to `groups`.
    fn push(&mut self, data: &[f32], groups: Vec<u32>) {
        let rows = groups.len() * self.rows;
        if rows == 0 {
            return;
        }
        let logits = oracle::logits(&self.model, data, rows);
        for (i, g) in groups.iter().enumerate() {
            let g = *g as usize;
            if self.group_classes.len() <= g {
                self.group_classes.resize(g + 1, 0);
            }
            let item = &logits[i * self.rows * self.outputs..(i + 1) * self.rows * self.outputs];
            if self.rows == 1 {
                for c in 0..self.outputs.min(64) {
                    if oracle::class_ok(item, c, DENSE_TOL) {
                        self.group_classes[g] |= 1 << c;
                    }
                }
            }
        }
        self.data.extend_from_slice(data);
        self.oracle.extend_from_slice(&logits);
        self.group.extend(groups);
    }

    fn features(&self, item: usize) -> &[f32] {
        let n = self.rows * self.width;
        &self.data[item * n..(item + 1) * n]
    }

    fn logits(&self, item: usize) -> &[f32] {
        let n = self.rows * self.outputs;
        &self.oracle[item * n..(item + 1) * n]
    }

    /// Oracle gate for one answer. A cached single-row answer may also be
    /// the oracle class of another input of the same entity, which is what
    /// a near hit of the semantic cache returns.
    fn check(&self, item: usize, predictions: &[u32], cached: bool) -> bool {
        if oracle::predictions_ok(self.logits(item), self.outputs, predictions, DENSE_TOL) {
            return true;
        }
        cached
            && self.rows == 1
            && predictions.len() == 1
            && predictions[0] < 64
            && self.group_classes[self.group[item] as usize] & (1 << predictions[0]) != 0
    }
}

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Send offset from the phase start, ns.
    at: u64,
    class: u8,
    item: u32,
}

/// Builds a phase's merged schedule; `online-cached` appends its jittered
/// rows to the pool (with oracle answers) as it goes.
fn plan(
    kind: Kind,
    specs: &[ClassSpec],
    pools: &mut [Pool],
    seed: u64,
    phase: u64,
    secs: f64,
) -> Vec<Planned> {
    let mut all = Vec::new();
    for (ci, spec) in specs.iter().enumerate() {
        let tag = 100 + phase * 10 + ci as u64;
        let times = poisson_schedule(&mut SplitMix64::stream(seed, tag), spec.rate, secs);
        let mut pick = SplitMix64::stream(seed, tag + 1000);
        let pool = &mut pools[spec.pool];
        let items: Vec<u32> = if kind == Kind::Cached {
            let zipf = Zipf::new(ENTITIES, ZIPF_S);
            let mut jitter = SplitMix64::stream(seed, tag + 2000);
            let (mut rows, mut groups) = (Vec::new(), Vec::new());
            let next = pool.items() as u32;
            let items = (0..times.len())
                .map(|j| {
                    let entity = zipf.sample(&mut pick);
                    if j % JITTER_EVERY == JITTER_EVERY - 1 {
                        rows.extend(
                            pool.features(entity)
                                .iter()
                                .map(|v| v + jitter.uniform(-JITTER_EPS, JITTER_EPS)),
                        );
                        groups.push(entity as u32);
                        next + groups.len() as u32 - 1
                    } else {
                        entity as u32
                    }
                })
                .collect();
            pool.push(&rows, groups);
            items
        } else {
            let n = pool.items();
            times.iter().map(|_| pick.below(n) as u32).collect()
        };
        all.extend(times.into_iter().zip(items).map(|(at, item)| Planned {
            at,
            class: ci as u8,
            item,
        }));
    }
    all.sort_by_key(|p| p.at);
    all
}

/// Reassembles length-prefixed frames from a socket with a read timeout.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
}

impl FrameReader {
    /// The next complete frame payload; `Ok(None)` when the read timed out.
    fn next(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            let avail = &self.buf[self.head..];
            if avail.len() >= 4 {
                let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                if len > wire::MAX_FRAME_BYTES {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "oversized frame",
                    ));
                }
                if avail.len() >= 4 + len {
                    let payload = avail[4..4 + len].to_vec();
                    self.head += 4 + len;
                    return Ok(Some(payload));
                }
            }
            if self.head > 0 {
                self.buf.drain(..self.head);
                self.head = 0;
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A raw wire connection: the writer half goes to the sender thread and
/// the reader half to that connection's reader thread.
struct RawConn {
    writer: TcpStream,
    reader: FrameReader,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read = stream.try_clone()?;
        read.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(RawConn {
            writer: stream,
            reader: FrameReader {
                stream: read,
                buf: Vec::new(),
                head: 0,
            },
        })
    }

    /// The next response, waiting at most until `deadline`.
    fn recv_by(&mut self, deadline: Instant) -> Result<Option<Response>, String> {
        while Instant::now() < deadline {
            if let Some(p) = self.reader.next().map_err(|e| format!("read: {e}"))? {
                return wire::decode_response(&p)
                    .map(Some)
                    .map_err(|e| format!("decode: {e}"));
            }
        }
        Ok(None)
    }

    /// Server counters over the Stats opcode (no requests in flight).
    fn stats(&mut self, id: u64) -> Result<BTreeMap<String, u64>, String> {
        send(&mut self.writer, &Request::Stats { id }).map_err(|e| format!("stats: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.recv_by(deadline)? {
                Some(Response::Stats { id: got, counters }) if got == id => {
                    return Ok(counters.into_iter().collect())
                }
                Some(_) => {}
                None => return Err("stats: no answer".into()),
            }
        }
    }
}

/// Encodes and writes one frame with a single write.
fn send(w: &mut TcpStream, req: &Request) -> Result<(), String> {
    let payload = wire::encode_request(req).map_err(|e| e.to_string())?;
    write_frame(w, &payload)
}

fn write_frame(w: &mut TcpStream, payload: &[u8]) -> Result<(), String> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    wire::write_frame(&mut frame, payload).map_err(|e| e.to_string())?;
    w.write_all(&frame).map_err(|e| e.to_string())
}

fn infer_request(id: u64, spec: &ClassSpec, pool: &Pool, item: usize) -> Request {
    Request::Infer(InferRequest {
        id,
        class: spec.class,
        deadline_micros: 0,
        model: pool.model.name().to_string(),
        rows: pool.rows as u32,
        cols: pool.width as u32,
        data: pool.features(item).to_vec(),
    })
}

/// A set-up server with its connections and generated inputs.
struct Setup {
    handle: ServerHandle,
    conns: Vec<RawConn>,
    specs: Vec<ClassSpec>,
    pools: Vec<Pool>,
    /// One open-loop schedule per phase.
    plans: Vec<Vec<Planned>>,
    next_id: u64,
}

/// Session open, model load, inputs and oracle, server spawn, warm-up.
fn setup(kind: Kind, seed: u64, phase_secs: &[f64]) -> Result<Setup, String> {
    let session = InferenceSession::open(SessionConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = seeded_rng(MODEL_SEED);
    let mut biases = SplitMix64::stream(MODEL_SEED, 3);
    let fraud = oracle::with_biases(
        zoo::fraud_fc_256(&mut rng).map_err(|e| e.to_string())?,
        &mut biases,
    );
    session
        .load_model(fraud.clone())
        .map_err(|e| e.to_string())?;
    let mut inputs = SplitMix64::stream(seed, 1);
    let mut pools = vec![Pool::new(
        Arc::new(fraud),
        1,
        if kind == Kind::Cached {
            ENTITIES
        } else {
            FRAUD_POOL
        },
        &mut inputs,
    )];
    if kind == Kind::Mixed {
        let encoder = oracle::with_biases(
            zoo::encoder_fc(&mut rng).map_err(|e| e.to_string())?,
            &mut biases,
        );
        session
            .load_model(encoder.clone())
            .map_err(|e| e.to_string())?;
        pools.push(Pool::new(Arc::new(encoder), 64, ENCODER_POOL, &mut inputs));
    }
    let specs = classes(kind);
    let plans = phase_secs
        .iter()
        .enumerate()
        .map(|(i, s)| plan(kind, &specs, &mut pools, seed, i as u64, *s))
        .collect();

    let mut config = ServeConfig::builder();
    match kind {
        Kind::Fraud => {}
        Kind::Mixed => config = config.architecture(Architecture::Adaptive),
        Kind::Cached => {
            config = config.cache(CacheConfig {
                enabled: true,
                ..CacheConfig::default()
            })
        }
    }
    let config = config.build().map_err(|e| e.to_string())?;
    let handle = Server::spawn(Arc::new(session), config).map_err(|e| e.to_string())?;
    let conns = specs
        .iter()
        .map(|_| RawConn::connect(handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut s = Setup {
        handle,
        conns,
        specs,
        pools,
        plans,
        next_id: 1,
    };
    warm_up(&mut s, kind, seed)?;
    Ok(s)
}

/// Closed-loop warm-up on every connection; any wrong answer fails set-up.
fn warm_up(s: &mut Setup, kind: Kind, seed: u64) -> Result<(), String> {
    for ci in 0..s.specs.len() {
        let spec = s.specs[ci];
        let pool = &s.pools[spec.pool];
        let count = match (kind, pool.rows) {
            (_, 64) => 2 * ENCODER_POOL,
            (Kind::Cached, _) => 4_000,
            _ => 4_000,
        };
        let mut pick = SplitMix64::stream(seed, 50 + ci as u64);
        let zipf = Zipf::new(ENTITIES, ZIPF_S);
        let items: Vec<usize> = (0..count)
            .map(|_| match kind {
                Kind::Cached => zipf.sample(&mut pick),
                _ => pick.below(pool.items().min(FRAUD_POOL)),
            })
            .collect();
        let conn = &mut s.conns[ci];
        let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
        let mut next = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        while next < items.len() || !pending.is_empty() {
            while next < items.len() && pending.len() < WINDOW {
                let id = s.next_id;
                s.next_id += 1;
                send(
                    &mut conn.writer,
                    &infer_request(id, &spec, pool, items[next]),
                )?;
                pending.insert(id, items[next]);
                next += 1;
            }
            match conn.recv_by(deadline)? {
                Some(Response::Infer {
                    id,
                    predictions,
                    cached,
                    ..
                }) => {
                    let item = pending.remove(&id).ok_or("warm-up: unknown id")?;
                    if !pool.check(item, &predictions, cached) {
                        return Err(format!(
                            "warm-up answer for id {id} disagrees with the oracle"
                        ));
                    }
                }
                Some(other) => return Err(format!("warm-up: unexpected {other:?}")),
                None => return Err("warm-up timed out".into()),
            }
        }
    }
    Ok(())
}

/// What a reader saw for one request.
enum Got {
    Answer {
        recv: u64,
        decode_ns: u64,
        queue_wait_us: u64,
        cached: bool,
        predictions: Vec<u32>,
    },
    Refused,
}

/// Per-request outcome of an open-loop phase.
struct OpenLoop {
    /// Per class: (scheduled send in ns, latency in ms from it) of every
    /// correct answer.
    latency_ms: Vec<Vec<(u64, f64)>>,
    sent: Vec<u64>,
    within_limit: Vec<u64>,
    wrong: u64,
    failed: u64,
    rows_answered: u64,
    /// Send minus scheduled time, µs.
    lateness_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    post_queue_us: Vec<f64>,
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    secs: f64,
}

/// Runs one open-loop phase; with a tracer, records a span per request
/// and around each wire call.
fn open_loop(
    s: &mut Setup,
    phase: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<OpenLoop, String> {
    let plan = &s.plans[phase];
    let id_base = s.next_id;
    s.next_id += plan.len() as u64;
    let specs = &s.specs;
    let pools = &s.pools;
    let traced = tracer.is_some();
    let start = Instant::now() + Duration::from_millis(5);
    let last = plan.last().map_or(0, |p| p.at);
    let read_deadline = start + Duration::from_nanos(last) + DRAIN;
    let mut expected = vec![0usize; specs.len()];
    for p in plan {
        expected[p.class as usize] += 1;
    }
    let (mut writers, readers): (Vec<&mut TcpStream>, Vec<&mut FrameReader>) = s
        .conns
        .iter_mut()
        .map(|c| (&mut c.writer, &mut c.reader))
        .unzip();

    let (sent_at, encode, received) = std::thread::scope(|scope| {
        let reader_threads: Vec<_> = readers
            .into_iter()
            .zip(expected.clone())
            .map(|(reader, want)| {
                scope.spawn(move || -> Result<Vec<(usize, Got)>, String> {
                    let mut got = Vec::with_capacity(want);
                    while got.len() < want && Instant::now() < read_deadline {
                        let Some(payload) = reader.next().map_err(|e| format!("read: {e}"))? else {
                            continue;
                        };
                        let t0 = Instant::now();
                        let resp =
                            wire::decode_response(&payload).map_err(|e| format!("decode: {e}"))?;
                        let t1 = Instant::now();
                        let recv = (t1 - start).as_nanos() as u64;
                        let idx = resp.id().wrapping_sub(id_base) as usize;
                        let g = match resp {
                            Response::Infer {
                                queue_wait_micros,
                                cached,
                                predictions,
                                ..
                            } => Got::Answer {
                                recv,
                                decode_ns: (t1 - t0).as_nanos() as u64,
                                queue_wait_us: queue_wait_micros,
                                cached,
                                predictions,
                            },
                            _ => Got::Refused,
                        };
                        got.push((idx, g));
                    }
                    Ok(got)
                })
            })
            .collect();
        // The sender: wait for each scheduled instant, then encode and write.
        let mut sent_at = Vec::with_capacity(plan.len());
        let mut encode = Vec::with_capacity(if traced { plan.len() } else { 0 });
        let mut send_err = None;
        for (i, p) in plan.iter().enumerate() {
            let due = start + Duration::from_nanos(p.at);
            let mut now = Instant::now();
            while now < due {
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            let spec = &specs[p.class as usize];
            let req = infer_request(id_base + i as u64, spec, &pools[spec.pool], p.item as usize);
            let payload = match wire::encode_request(&req) {
                Ok(p) => p,
                Err(e) => {
                    send_err = Some(e.to_string());
                    break;
                }
            };
            if traced {
                encode.push((Instant::now() - now).as_nanos() as u64);
            }
            sent_at.push((now - start).as_nanos() as u64);
            if let Err(e) = write_frame(writers[p.class as usize], &payload) {
                send_err = Some(e);
                break;
            }
        }
        let received: Vec<_> = reader_threads
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        match send_err {
            Some(e) => Err(e),
            None => Ok((sent_at, encode, received)),
        }
    })?;

    let mut slots: Vec<Option<Got>> = (0..plan.len()).map(|_| None).collect();
    for r in received {
        for (idx, g) in r? {
            if idx < slots.len() {
                slots[idx] = Some(g);
            }
        }
    }
    let n_classes = specs.len();
    let mut out = OpenLoop {
        latency_ms: vec![Vec::new(); n_classes],
        sent: vec![0; n_classes],
        within_limit: vec![0; n_classes],
        wrong: 0,
        failed: 0,
        rows_answered: 0,
        lateness_us: Vec::with_capacity(plan.len()),
        queue_wait_us: Vec::new(),
        post_queue_us: Vec::new(),
        encode_ns: encode,
        decode_ns: Vec::new(),
        secs: last as f64 / 1e9,
    };
    for (i, (p, slot)) in plan.iter().zip(slots).enumerate() {
        let c = p.class as usize;
        let spec = &specs[c];
        let pool = &pools[spec.pool];
        out.sent[c] += 1;
        let sent = sent_at.get(i).copied().unwrap_or(u64::MAX);
        out.lateness_us.push(sent.saturating_sub(p.at) as f64 / 1e3);
        match slot {
            Some(Got::Answer {
                recv,
                decode_ns,
                queue_wait_us,
                cached,
                predictions,
            }) => {
                if !pool.check(p.item as usize, &predictions, cached) {
                    out.wrong += 1;
                    out.failed += 1;
                    continue;
                }
                let latency = recv.saturating_sub(p.at) as f64 / 1e6;
                out.latency_ms[c].push((p.at, latency));
                out.rows_answered += pool.rows as u64;
                if latency <= spec.limit_ms {
                    out.within_limit[c] += 1;
                }
                if c == 0 {
                    let rtt_us = recv.saturating_sub(sent) as f64 / 1e3;
                    out.queue_wait_us.push(queue_wait_us as f64);
                    out.post_queue_us
                        .push((rtt_us - queue_wait_us as f64).max(0.0));
                }
                if let Some(t) = tracer.as_deref_mut() {
                    out.decode_ns.push(decode_ns);
                    let req = id_base + i as u64;
                    let at = |ns: u64| start + Duration::from_nanos(ns);
                    let root = t.record("request", at(p.at), at(recv), None, req);
                    let encoded = sent + out.encode_ns[i];
                    t.record("serve.wire.encode", at(sent), at(encoded), Some(root), req);
                    // The server reports only the length of the queue wait;
                    // the span is placed right after the write.
                    let q = queue_wait_us * 1000;
                    t.record(
                        "serve.queue_wait",
                        at(encoded),
                        at(encoded + q),
                        Some(root),
                        req,
                    );
                    t.record(
                        "serve.wire.decode",
                        at(recv - decode_ns),
                        at(recv),
                        Some(root),
                        req,
                    );
                }
            }
            Some(Got::Refused) | None => out.failed += 1,
        }
    }
    Ok(out)
}

/// Closed-loop saturation through `Client`: median rows/s over windows.
fn saturation(
    addr: SocketAddr,
    pool: &Pool,
    seed: u64,
    secs: f64,
) -> Result<(f64, Outcome), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut pick = SplitMix64::stream(seed, 70);
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut outcome = Outcome::default();
    let model = pool.model.name().to_string();
    let mut send_one =
        |client: &mut Client, pending: &mut BTreeMap<u64, usize>| -> Result<(), String> {
            let item = pick.below(pool.items());
            let id = client
                .send_infer(
                    &model,
                    Priority::Standard,
                    None,
                    1,
                    pool.width,
                    pool.features(item).to_vec(),
                )
                .map_err(|e| e.to_string())?;
            pending.insert(id, item);
            Ok(())
        };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    for _ in 0..SAT_WINDOW {
        send_one(&mut client, &mut pending)?;
    }
    let windows = (secs / RATE_WINDOW.as_secs_f64()).floor().max(1.0) as usize;
    let mut done = vec![0u64; windows];
    while !pending.is_empty() {
        let resp = client.recv().map_err(|e| e.to_string())?;
        let now = Instant::now();
        outcome.attempted += 1;
        match resp {
            Response::Infer {
                id,
                predictions,
                cached,
                ..
            } => {
                let item = pending.remove(&id).ok_or("saturation: unknown id")?;
                if !pool.check(item, &predictions, cached) {
                    outcome.wrong += 1;
                    outcome.failed += 1;
                } else if now < end {
                    let w = ((now - start).as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize;
                    if w < windows {
                        done[w] += 1;
                    }
                }
            }
            other => {
                pending.remove(&other.id());
                outcome.failed += 1;
            }
        }
        if now < end {
            send_one(&mut client, &mut pending)?;
        }
    }
    let rates: Vec<f64> = done
        .iter()
        .map(|d| *d as f64 / RATE_WINDOW.as_secs_f64())
        .collect();

    Ok((median(&rates).unwrap_or(0.0), outcome))
}

/// End-to-end figures of one open-loop phase.
struct Phase {
    open: OpenLoop,
    outcome: Outcome,
}

impl Phase {
    /// Primary-class median latency: the median over one-second windows
    /// of scheduled send time of each window's median, ms.
    fn p50(&self) -> Result<f64, String> {
        let lat = &self.open.latency_ms[0];
        windowed(lat, LATENCY_WINDOW_NS, 0.5)
            .ok_or_else(|| format!("only {} latency samples: too few for a median", lat.len()))
    }

    /// Rows answered correctly per second of the phase.
    fn rows_per_s(&self) -> f64 {
        self.open.rows_answered as f64 / self.open.secs.max(1e-9)
    }
}

fn run_phase(s: &mut Setup, phase: usize, tracer: Option<&mut Tracer>) -> Result<Phase, String> {
    let open = open_loop(s, phase, tracer)?;
    let outcome = Outcome {
        attempted: open.sent.iter().sum(),
        failed: open.failed,
        wrong: open.wrong,
    };
    Ok(Phase { open, outcome })
}

/// Reports generator lateness. A generator whose p99 lateness exceeds
/// twice the tightest latency limit has fallen behind: over 1% of requests
/// then miss the limit on its account alone, so the run is invalid and its
/// numbers are not reported.
fn lateness(run: &mut Run, phase: &Phase, specs: &[ClassSpec], label: &str) -> Option<String> {
    let late = sorted(phase.open.lateness_us.clone());
    let p99 = percentile(&late, 0.99).unwrap_or(f64::INFINITY);
    let max = late.last().copied().unwrap_or(0.0);
    run.line(format!(
        "{label} generator lateness: p99 {p99:.1} us, max {max:.1} us over {} sends",
        late.len()
    ));
    let limit_us = specs
        .iter()
        .map(|c| c.limit_ms)
        .fold(f64::INFINITY, f64::min)
        * 1e3;
    (p99 > 2.0 * limit_us).then(|| {
        format!("generator fell behind: lateness p99 {p99:.0} us exceeds twice the {limit_us:.0} us latency limit")
    })
}

fn report_phase(run: &mut Run, phase: &Phase, specs: &[ClassSpec], label: &str) {
    for (c, spec) in specs.iter().enumerate() {
        let samples = &phase.open.latency_ms[c];
        let lat = sorted(samples.iter().map(|s| s.1).collect());
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.3} ms"));
        let windows = samples
            .iter()
            .map(|s| s.0 / LATENCY_WINDOW_NS)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let window_s = LATENCY_WINDOW_NS as f64 / 1e9;
        run.line(format!(
            "{label} {}: sent {} answered-correct {} (n={}) whole-phase p50 {} p99 {}; median over {windows} windows of {window_s} s p50 {} p95 {} p99 {}; within {} ms: {}",
            spec.label,
            phase.open.sent[c],
            lat.len(),
            lat.len(),
            fmt(percentile(&lat, 0.5)),
            fmt(percentile(&lat, 0.99)),
            fmt(windowed(samples, LATENCY_WINDOW_NS, 0.5)),
            fmt(windowed(samples, LATENCY_WINDOW_NS, 0.95)),
            fmt(windowed(samples, LATENCY_WINDOW_NS, 0.99)),
            spec.limit_ms,
            phase.open.within_limit[c]
        ));
    }
}

fn counters_delta(
    after: &BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    name: &str,
) -> f64 {
    let a = after.get(name).copied().unwrap_or(0);
    let b = before.get(name).copied().unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// Runs an online workload.
pub fn run(kind: Kind, args: &Args, run: &mut Run) -> Result<(), String> {
    let specs = classes(kind);
    for spec in &specs {
        run.meta(
            format!("offered_rate.{}", spec.label),
            format!("{}", spec.rate),
        );
        run.meta(
            format!("latency_limit_ms.{}", spec.label),
            format!("{}", spec.limit_ms),
        );
    }
    run.meta(
        "connections",
        specs.len() + usize::from(kind == Kind::Fraud && args.trace),
    );
    run.meta("generator_threads", 1);
    let phases: Vec<f64> = if args.trace {
        vec![args.seconds / 2.0, args.seconds / 2.0]
    } else {
        vec![args.seconds]
    };
    let mut s: Option<Setup> = None;
    let mut setup_times = Vec::new();
    let repeats = if args.trace { 1 } else { crate::SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some(old) = s.take() {
            old.handle.shutdown();
        }
        let t0 = Instant::now();
        s = Some(setup(kind, args.seed, &phases)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");
    run.record_setup(&setup_times);
    run.meta("block_size", s.handle.session().config().block_size);

    if !args.trace {
        let mut attempt = 0;
        let phase = loop {
            attempt += 1;
            let phase = run_phase(&mut s, 0, None)?;
            report_phase(run, &phase, &specs, "untraced");
            run.add(phase.outcome);
            run.invalid = lateness(run, &phase, &specs, "untraced");
            match &run.invalid {
                Some(why) if attempt < ATTEMPTS => {
                    run.line(format!("attempt {attempt} invalid, measured again: {why}"))
                }
                _ => break phase,
            }
        };
        let slo = 100.0 * phase.open.within_limit[0] as f64 / phase.open.sent[0].max(1) as f64;
        run.values.set("p50_ms", phase.p50()?);
        run.values.set("slo_pct", slo);
        run.values.set("rows_per_s", phase.rows_per_s());
        s.handle.shutdown();
        return Ok(());
    }

    // Traced run: the same workload untraced, then traced, on one server.
    let session = Arc::clone(s.handle.session());
    let mut attempt = 0;
    let (untraced, traced, mut tracer, before, after, counters0) = loop {
        attempt += 1;
        let untraced = run_phase(&mut s, 0, None)?;
        report_phase(run, &untraced, &specs, "untraced");
        run.add(untraced.outcome);
        let stats_id = s.next_id;
        s.next_id += 2;
        let before = s.conns[0].stats(stats_id)?;
        let counters0 = Counters::take(&session);
        session.governor().reset_peak();

        let mut tracer = Tracer::new(Instant::now());
        let traced = run_phase(&mut s, 1, Some(&mut tracer))?;
        report_phase(run, &traced, &specs, "traced");
        run.add(traced.outcome);
        let after = s.conns[0].stats(stats_id + 1)?;
        let behind = lateness(run, &untraced, &specs, "untraced");
        run.invalid = behind.or(lateness(run, &traced, &specs, "traced"));
        match &run.invalid {
            Some(why) if attempt < ATTEMPTS => {
                run.line(format!("attempt {attempt} invalid, measured again: {why}"))
            }
            _ => break (untraced, traced, tracer, before, after, counters0),
        }
    };

    let saturation_rows_per_s = if kind == Kind::Fraud {
        let (rate, o) = saturation(s.handle.addr(), &s.pools[0], args.seed, SATURATION_SECS)?;
        run.line(format!(
            "saturation: {rate:.0} rows/s (median of {} ms windows over {SATURATION_SECS} s, {SAT_WINDOW} outstanding)",
            RATE_WINDOW.as_millis()
        ));
        run.add(o);
        rate
    } else {
        0.0
    };
    let cache = if kind == Kind::Fraud {
        Some(cache_phase(run, args.seed)?)
    } else {
        None
    };
    let counters = Counters::delta(&counters0, &Counters::take(&session));
    let v = &mut run.values;
    let d = |n: &str| counters_delta(&after, &before, n);
    let qw = sorted(traced.open.queue_wait_us.clone());
    let pq = sorted(traced.open.post_queue_us.clone());
    v.set(
        "serve.queue_wait_us.p50",
        percentile(&qw, 0.5).unwrap_or(0.0),
    );
    v.set(
        "serve.queue_wait_us.p99",
        percentile(&qw, 0.99).unwrap_or(0.0),
    );
    v.set(
        "serve.post_queue_us.p50",
        percentile(&pq, 0.5).unwrap_or(0.0),
    );
    v.set(
        "serve.post_queue_us.p99",
        percentile(&pq, 0.99).unwrap_or(0.0),
    );
    v.set("serve.saturation_rows_per_s", saturation_rows_per_s);
    let batches = d("serve.batches");
    v.set("serve.batches", batches);
    v.set(
        "serve.batch_rows.avg",
        d("serve.fused_rows") / batches.max(1.0),
    );
    let batch_class = specs.iter().position(|c| c.class == Priority::Batch);
    let batch_p50 = batch_class
        .and_then(|c| {
            percentile(
                &sorted(traced.open.latency_ms[c].iter().map(|s| s.1).collect()),
                0.5,
            )
        })
        .unwrap_or(0.0);
    v.set("serve.batch_class.p50_ms", batch_p50);
    let ns_mean = |xs: &[u64]| mean(&xs.iter().map(|x| *x as f64 / 1e3).collect::<Vec<_>>());
    v.set("serve.wire.encode_us", ns_mean(&traced.open.encode_ns));
    v.set("serve.wire.decode_us", ns_mean(&traced.open.decode_ns));
    for (metric, counter) in [
        ("serve.shed", "serve.shed"),
        ("serve.deadline_rejected", "serve.deadline_rejected"),
        ("serve.wire_errors", "serve.wire_errors"),
        ("serve.reactor.read_pauses", "serve.reactor.read_pauses"),
        (
            "serve.reactor.response_parks",
            "serve.reactor.response_parks",
        ),
    ] {
        v.set(metric, d(counter));
    }
    if let Some(c) = &cache {
        let d = |n: &str| counters_delta(&c.after, &c.before, n);
        for m in [
            "serve.cache.bound_rejections",
            "serve.cache.evictions",
            "serve.cache.disagreements",
        ] {
            v.set(m, d(m));
        }
        let hits = d("serve.cache.hits");
        let probes = hits + d("serve.cache.misses");
        v.set(
            "serve.cache.hit_ratio",
            if probes > 0.0 { hits / probes } else { 0.0 },
        );
        let bytes = c.after.get("serve.cache.bytes").copied().unwrap_or(0);
        v.set("serve.cache.bytes", bytes as f64);
        v.set("vectoridx.hnsw.search_us", c.search_us);
    }
    counters.record(v, traced.outcome.attempted);
    v.set(
        "runtime.governor.peak_mib",
        session.governor().peak() as f64 / (1 << 20) as f64,
    );
    let (plan_us, relational_layers) = if kind == Kind::Mixed {
        let fused = v
            .get("serve.batch_rows.avg")
            .unwrap_or(1.0)
            .round()
            .max(1.0) as usize;
        time_plans(&session, &[("Fraud-FC-256", fused), ("Encoder-FC", 64)])?
    } else {
        (0.0, 0.0)
    };
    v.set("core.plan_us", plan_us);
    v.set("core.plan.relational_layers", relational_layers);
    let (m, k, n) = match kind {
        Kind::Mixed => (64, 3072, 768),
        _ => (
            v.get("serve.batch_rows.avg")
                .unwrap_or(1.0)
                .round()
                .max(1.0) as usize,
            28,
            256,
        ),
    };
    crate::tensor_metrics(run, m, k, n);
    let fraud = &s.pools[0];
    let forward_us = crate::time_forward_us(&fraud.model, fraud.features(0));
    run.values.set("nn.forward_us", forward_us);
    s.handle.shutdown();
    if kind == Kind::Mixed {
        crate::indb::layers(args.seed, INDB_SECS, run, &mut tracer)?;
    }
    run.finish_trace(tracer, &untraced.p50()?, &traced.p50()?);
    Ok(())
}

/// Counters of the cache sub-phase and the timed HNSW search.
struct CachePhase {
    before: BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
    search_us: f64,
}

/// The cache layers, measured on a second server with the semantic cache
/// on and driven by the cached request stream: Stats-opcode deltas over a
/// short open-loop phase, then a timed HNSW search over the entity
/// vectors.
fn cache_phase(run: &mut Run, seed: u64) -> Result<CachePhase, String> {
    let mut s = setup(Kind::Cached, seed, &[CACHE_PHASE_SECS])?;
    let id = s.next_id;
    s.next_id += 2;
    let before = s.conns[0].stats(id)?;
    let phase = run_phase(&mut s, 0, None)?;
    report_phase(run, &phase, &s.specs, "cache sub-phase");
    run.add(phase.outcome);
    let after = s.conns[0].stats(id + 1)?;
    let search_us = hnsw_search_us(&s.pools[0], seed)?;
    s.handle.shutdown();
    Ok(CachePhase {
        before,
        after,
        search_us,
    })
}

/// Mean µs of `InferenceSession::plan` over the given (model, rows), and
/// the mean count of layers planned onto block relations.
pub fn time_plans(
    session: &InferenceSession,
    shapes: &[(&str, usize)],
) -> Result<(f64, f64), String> {
    const REPS: usize = 200;
    let (mut total, mut relational, mut calls) = (0.0, 0.0, 0.0);
    for (model, rows) in shapes {
        for _ in 0..REPS {
            let t0 = Instant::now();
            let plan = session.plan(model, *rows).map_err(|e| e.to_string())?;
            total += t0.elapsed().as_secs_f64() * 1e6;
            relational += crate::relational_layers(&plan) as f64;
            calls += 1.0;
        }
    }
    Ok((total / calls, relational / calls))
}

/// Mean µs of an HNSW `search` over the entity vectors, with the cache's
/// own index parameters, for a sample of request rows.
fn hnsw_search_us(pool: &Pool, seed: u64) -> Result<f64, String> {
    let mut index =
        HnswIndex::new(pool.width, CacheConfig::default().hnsw).map_err(|e| e.to_string())?;
    for e in 0..ENTITIES {
        index
            .insert(e as u64, pool.features(e))
            .map_err(|e| e.to_string())?;
    }
    let mut pick = SplitMix64::stream(seed, 80);
    let queries: Vec<usize> = (0..2000).map(|_| pick.below(pool.items())).collect();
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(
            index
                .search(pool.features(*q), 1)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64)
}
