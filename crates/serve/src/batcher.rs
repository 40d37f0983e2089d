//! Dynamic micro-batcher: coalesces compatible in-flight requests into
//! fused batches.
//!
//! Connection threads [`Batcher::submit`] decoded requests; executor
//! threads pull a **fused batch** — whole requests of the same
//! `(model, class, width)` group, up to `max_batch_rows` — as soon as they
//! are idle. Dispatch is work-conserving: a request never waits while an
//! executor sleeps, so batches form only from what arrives while every
//! executor is busy, which is exactly when fusing pays. The fused batch
//! pays for admission, planning and kernel launch once via
//! [`InferenceSession::infer_fused`], admitted for its executor's share of
//! the cores, and each member's predictions are demultiplexed back to its
//! own connection.
//!
//! Three SLA levers act at flush time:
//!
//! 1. members whose deadline expired while buffered are rejected with
//!    `DeadlineExceeded` *before* the batch is admitted, so a stale
//!    request never poisons the fused batch;
//! 2. the fused batch runs under the class's [`AdmissionPolicy`], carrying
//!    the *loosest* member deadline (none if any member is unbounded) so
//!    one tight deadline cannot fail its co-batched peers;
//! 3. if a [`PressureLadder`] is registered for the model and the class's
//!    remaining backlog is deep, the batch steps down to a cheaper model
//!    version.

use crate::cache::{Lookup, SemanticCache};
use crate::shard::ShardCoordinator;
use crate::stats::ServeCounters;
use crate::wire::{self, ErrorCode, Response};
use relserve_core::versions::PressureLadder;
use relserve_core::{Architecture, Error as CoreError, InferenceSession};
use relserve_runtime::{AdmissionPolicy, Priority};
use relserve_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Where a submission's response goes. Connections hand the batcher their
/// reactor-side write queue; unit tests hand it a channel.
#[derive(Clone)]
pub(crate) enum ResponseSink {
    /// A reactor connection's bounded write queue.
    Conn(Arc<crate::conn::Conn>),
    /// An in-process collector (tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Channel(mpsc::Sender<Response>),
}

/// Sends responses for one submission and keeps the response/wire-error
/// ledgers. Cloned into every co-batched submission of a connection.
#[derive(Clone)]
pub(crate) struct Responder {
    pub sink: ResponseSink,
    pub counters: Arc<ServeCounters>,
}

impl Responder {
    /// Encode and send one response; wire failures are counted, not
    /// propagated (the peer is gone — nothing else to do). The send never
    /// blocks on the peer: an unwritable frame parks in the connection's
    /// bounded write queue with write interest armed, and a queue that
    /// would overflow its cap severs the connection instead.
    pub fn send(&self, resp: &Response) {
        self.counters.responses.fetch_add(1, Ordering::Relaxed);
        match &self.sink {
            ResponseSink::Conn(conn) => {
                let sent = match wire::encode_response(resp) {
                    Ok(payload) => conn.send_frame(&payload),
                    Err(_) => false,
                };
                if !sent {
                    self.counters.wire_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            ResponseSink::Channel(tx) => {
                let _ = tx.send(resp.clone());
            }
        }
    }
}

/// One buffered inference request awaiting a fused batch.
pub(crate) struct Submission {
    pub id: u64,
    pub class: Priority,
    /// Absolute deadline derived from the wire's relative microseconds.
    pub deadline: Option<Instant>,
    pub model: String,
    pub rows: usize,
    pub width: usize,
    pub data: Vec<f32>,
    /// When the server finished decoding the request.
    pub received: Instant,
    pub responder: Responder,
    /// A bound-rejected cache guess riding along for free validation at
    /// demux time.
    pub guess: Option<u32>,
    /// A shadow submission: its response was already served from the
    /// cache, so it executes only to validate — no second response, no
    /// completion accounting.
    pub shadow: bool,
}

/// Batcher tuning; the server builds this from its `ServeConfig`.
pub(crate) struct BatcherConfig {
    pub max_batch_rows: usize,
    /// Cores each fused batch is planned and admitted for: the executor's
    /// share of the machine, so concurrent executors run side by side.
    pub batch_cores: usize,
    pub architecture: Architecture,
    /// Admission policy per class, indexed by [`Priority::rank`].
    pub admission: [AdmissionPolicy; 3],
    /// Per-class buffered-row cap; submissions past it are shed at arrival.
    pub backlog_shed_rows: [Option<usize>; 3],
    /// SLA step-down ladder per model name.
    pub ladders: HashMap<String, PressureLadder>,
}

/// Requests of the same model, class and feature width can fuse.
type GroupKey = (String, usize, usize);

struct Group {
    queue: VecDeque<Submission>,
    rows: usize,
}

struct State {
    groups: HashMap<GroupKey, Group>,
    /// Buffered rows per class, indexed by rank.
    class_rows: [usize; 3],
    shutdown: bool,
    /// Shutdown was entered through the graceful-drain path: arrivals are
    /// refused with the typed `Draining` code instead of `Overloaded`.
    draining: bool,
}

/// The shared micro-batching core: connection threads submit, executor
/// threads drain.
pub(crate) struct Batcher {
    state: Mutex<State>,
    ready: Condvar,
    config: BatcherConfig,
    counters: Arc<ServeCounters>,
    session: Arc<InferenceSession>,
    /// The semantic result cache fronting this batcher, when enabled.
    cache: Option<Arc<SemanticCache>>,
    /// Distributed execution: fused batches scatter across a worker fleet
    /// instead of running in-process, when the server is sharded.
    shard: Option<Arc<ShardCoordinator>>,
}

impl Batcher {
    pub fn new(
        config: BatcherConfig,
        counters: Arc<ServeCounters>,
        session: Arc<InferenceSession>,
        cache: Option<Arc<SemanticCache>>,
        shard: Option<Arc<ShardCoordinator>>,
    ) -> Arc<Self> {
        Arc::new(Batcher {
            state: Mutex::new(State {
                groups: HashMap::new(),
                class_rows: [0; 3],
                shutdown: false,
                draining: false,
            }),
            ready: Condvar::new(),
            config,
            counters,
            session,
            cache,
            shard,
        })
    }

    /// Buffer one request for coalescing, or shed it immediately when the
    /// class backlog is over its cap. The semantic cache is probed *first*:
    /// a hit answers here on the connection thread — no buffering, no
    /// admission ticket, no kernel — and only a sampled subset of near-hits
    /// continue into the batcher as shadow work to keep the error bound
    /// live.
    pub fn submit(&self, mut sub: Submission) {
        let rank = sub.class.rank();
        if let Some(cache) = self.cache.as_deref() {
            if !sub.shadow {
                match cache.lookup(&sub.model, sub.class, sub.rows, sub.width, &sub.data) {
                    Lookup::Hit {
                        predictions,
                        near: _,
                        validate,
                    } => {
                        self.counters.per_class[rank]
                            .completed
                            .fetch_add(1, Ordering::Relaxed);
                        sub.responder.send(&Response::Infer {
                            id: sub.id,
                            queue_wait_micros: 0,
                            cached: true,
                            model_used: sub.model.clone(),
                            degraded_to: None,
                            predictions: predictions.clone(),
                        });
                        if !validate {
                            return;
                        }
                        // Shadow-execute this hit to validate the cached
                        // answer; the client already has its response.
                        sub.shadow = true;
                        sub.deadline = None;
                        sub.guess = predictions.first().copied();
                    }
                    Lookup::Miss { guess } => sub.guess = guess,
                    Lookup::Bypass => {}
                }
            }
        }
        {
            let mut state = self.state.lock().expect("batcher lock poisoned");
            if state.shutdown {
                let draining = state.draining;
                drop(state);
                if sub.shadow {
                    return; // the client was already answered
                }
                if draining {
                    self.counters
                        .drain
                        .shed_requests
                        .fetch_add(1, Ordering::Relaxed);
                    sub.responder.send(&Response::Error {
                        id: sub.id,
                        code: ErrorCode::Draining,
                        message: "server is draining".into(),
                    });
                    return;
                }
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                self.counters.per_class[rank]
                    .shed
                    .fetch_add(1, Ordering::Relaxed);
                sub.responder.send(&Response::Error {
                    id: sub.id,
                    code: ErrorCode::Overloaded,
                    message: "server is shutting down".into(),
                });
                return;
            }
            if let Some(cap) = self.config.backlog_shed_rows[rank] {
                if state.class_rows[rank] + sub.rows > cap {
                    drop(state);
                    if sub.shadow {
                        return; // validation is best-effort under pressure
                    }
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    self.counters.per_class[rank]
                        .shed
                        .fetch_add(1, Ordering::Relaxed);
                    sub.responder.send(&Response::Error {
                        id: sub.id,
                        code: ErrorCode::Overloaded,
                        message: format!("{} backlog over {cap} buffered rows", sub.class),
                    });
                    return;
                }
            }
            let key = (sub.model.clone(), rank, sub.width);
            state.class_rows[rank] += sub.rows;
            let group = state.groups.entry(key).or_insert_with(|| Group {
                queue: VecDeque::new(),
                rows: 0,
            });
            group.rows += sub.rows;
            group.queue.push_back(sub);
        }
        // One arrival needs one executor; waking them all would only herd
        // them onto the lock.
        self.ready.notify_one();
    }

    /// Wake every executor so it can observe the shutdown flag and drain.
    pub fn shutdown(&self) {
        self.state.lock().expect("batcher lock poisoned").shutdown = true;
        self.ready.notify_all();
    }

    /// Enter graceful drain: shed every *buffered-but-unadmitted*
    /// submission with a typed `Draining` error, refuse new arrivals the
    /// same way, and let executors finish the batches they already popped.
    /// Returns the number of requests shed (shadows drop silently — their
    /// clients were answered from the cache long ago).
    pub fn drain_shed(&self) -> u64 {
        let buffered: Vec<Submission> = {
            let mut state = self.state.lock().expect("batcher lock poisoned");
            state.shutdown = true;
            state.draining = true;
            state.class_rows = [0; 3];
            state.groups.drain().flat_map(|(_, g)| g.queue).collect()
        };
        self.ready.notify_all();
        let mut shed = 0u64;
        for sub in buffered {
            if sub.shadow {
                continue;
            }
            shed += 1;
            sub.responder.send(&Response::Error {
                id: sub.id,
                code: ErrorCode::Draining,
                message: "server is draining; request was not admitted".into(),
            });
        }
        self.counters
            .drain
            .shed_requests
            .fetch_add(shed, Ordering::Relaxed);
        shed
    }

    /// Executor thread body: pull fused batches until shutdown drains the
    /// last group.
    pub fn run_executor(&self) {
        while let Some(batch) = self.next_batch() {
            self.execute(batch);
        }
    }

    /// Take the next group the moment one is buffered, popping whole
    /// requests up to `max_batch_rows`; sleep only while nothing is. After
    /// shutdown the remaining groups still drain; `None` ends the executor
    /// once they are gone.
    fn next_batch(&self) -> Option<FusedWork> {
        let mut state = self.state.lock().expect("batcher lock poisoned");
        loop {
            if let Some(key) = pick_next(&state) {
                let work = self.pop_batch(&mut state, &key);
                if !state.groups.is_empty() {
                    // Work is left over: hand it to an idle executor, if
                    // any, rather than leave it for this one's return.
                    self.ready.notify_one();
                }
                return Some(work);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("batcher lock poisoned");
        }
    }

    /// Pop whole submissions (at least one) until the fused batch would
    /// exceed `max_batch_rows`, updating the backlog ledgers.
    fn pop_batch(&self, state: &mut State, key: &GroupKey) -> FusedWork {
        let mut members = Vec::new();
        let mut rows = 0usize;
        {
            let group = state.groups.get_mut(key).expect("picked group exists");
            while let Some(front) = group.queue.front() {
                if !members.is_empty() && rows + front.rows > self.config.max_batch_rows {
                    break;
                }
                let sub = group.queue.pop_front().expect("front exists");
                rows += sub.rows;
                group.rows -= sub.rows;
                members.push(sub);
            }
            if group.queue.is_empty() {
                state.groups.remove(key);
            }
        }
        state.class_rows[key.1] -= rows;
        FusedWork {
            model: key.0.clone(),
            rank: key.1,
            members,
            // Depth the SLA ladder sees: rows of this class still buffered
            // *after* this batch leaves the queue.
            backlog_rows: state.class_rows[key.1],
        }
    }

    /// Execute one fused batch outside the batcher lock and demux the
    /// responses.
    fn execute(&self, work: FusedWork) {
        let flush_start = Instant::now();
        let rank = work.rank;

        // Satellite guarantee: a deadline that expired while the request
        // sat buffered is rejected *before* admission — it never joins the
        // fused tensor, so it cannot poison its peers.
        let mut live = Vec::with_capacity(work.members.len());
        for sub in work.members {
            if !sub.shadow && sub.deadline.is_some_and(|d| d <= flush_start) {
                self.counters
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.per_class[rank]
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                sub.responder.send(&Response::Error {
                    id: sub.id,
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired while buffered for batching".into(),
                });
            } else {
                live.push(sub);
            }
        }
        if live.is_empty() {
            return;
        }

        // SLA step-down: deep remaining backlog for this class sends the
        // whole batch to a cheaper rung of the model's version ladder.
        let (model_used, stepped_down) = match self.config.ladders.get(&work.model) {
            Some(ladder) => {
                let (rung, idx) = ladder.rung_for_depth(work.backlog_rows);
                self.counters.record_ladder_rung(&work.model, idx);
                (rung.to_string(), idx > 0)
            }
            None => (work.model.clone(), false),
        };

        // The fused policy carries the *loosest* member deadline; one
        // member with an unbounded deadline unbinds the batch.
        let mut policy = self.config.admission[rank];
        policy.deadline = live
            .iter()
            .map(|s| s.deadline)
            .collect::<Option<Vec<_>>>()
            .and_then(|ds| ds.into_iter().max());

        let parts: Vec<Tensor> = match live
            .iter()
            .map(|s| Tensor::from_vec([s.rows, s.width], s.data.clone()))
            .collect()
        {
            Ok(parts) => parts,
            Err(e) => {
                self.respond_error(&live, ErrorCode::Invalid, &format!("bad feature data: {e}"));
                return;
            }
        };
        let total_rows: usize = live.iter().map(|s| s.rows).sum();
        self.counters.record_batch(total_rows as u64);

        // Sharded servers scatter the fused batch across the worker
        // fleet; the coordinator falls back to the session's own fused
        // path itself when the model is unshardable or the fleet is gone.
        let fused = match self.shard.as_deref() {
            Some(coordinator) => coordinator.infer_fused(
                &self.session,
                &model_used,
                &parts,
                self.config.architecture.clone(),
                &policy,
                self.config.batch_cores,
            ),
            None => self.session.infer_fused(
                &model_used,
                &parts,
                self.config.architecture.clone(),
                &policy,
                self.config.batch_cores,
            ),
        };
        match fused {
            Ok(outcome) => {
                for (sub, preds) in live.iter().zip(outcome.per_request.iter()) {
                    let predictions: Vec<u32> = preds.iter().map(|p| *p as u32).collect();
                    if !sub.shadow {
                        self.counters.per_class[rank]
                            .completed
                            .fetch_add(1, Ordering::Relaxed);
                        sub.responder.send(&Response::Infer {
                            id: sub.id,
                            queue_wait_micros: flush_start.duration_since(sub.received).as_micros()
                                as u64,
                            cached: false,
                            model_used: model_used.clone(),
                            degraded_to: outcome.degraded_to.map(String::from),
                            predictions,
                        });
                    }
                }
                // Cache maintenance after every client got its response:
                // only trustworthy outputs — the requested model, no
                // degraded fallback — validate guesses or populate.
                if let Some(cache) = self.cache.as_deref() {
                    if !stepped_down && outcome.degraded_to.is_none() {
                        for (sub, preds) in live.iter().zip(outcome.per_request.iter()) {
                            let exact: Vec<u32> = preds.iter().map(|p| *p as u32).collect();
                            if let (Some(guess), Some(&first)) = (sub.guess, exact.first()) {
                                cache.record_validation(guess, first);
                            }
                            cache.admit(&work.model, sub.width, sub.rows, &sub.data, &exact);
                        }
                    }
                }
            }
            Err(err) => {
                let code = classify(&err);
                // Shadow members already answered from the cache: they are
                // invisible to the error ledgers and get no second response.
                let visible = live.iter().filter(|s| !s.shadow).count() as u64;
                if code == ErrorCode::Overloaded {
                    self.counters.shed.fetch_add(visible, Ordering::Relaxed);
                    self.counters.per_class[rank]
                        .shed
                        .fetch_add(visible, Ordering::Relaxed);
                } else if code == ErrorCode::DeadlineExceeded {
                    self.counters
                        .deadline_rejected
                        .fetch_add(visible, Ordering::Relaxed);
                    self.counters.per_class[rank]
                        .deadline_rejected
                        .fetch_add(visible, Ordering::Relaxed);
                }
                self.respond_error(&live, code, &err.to_string());
            }
        }
    }

    fn respond_error(&self, members: &[Submission], code: ErrorCode, message: &str) {
        for sub in members.iter().filter(|s| !s.shadow) {
            sub.responder.send(&Response::Error {
                id: sub.id,
                code,
                message: message.to_string(),
            });
        }
    }
}

struct FusedWork {
    model: String,
    rank: usize,
    members: Vec<Submission>,
    backlog_rows: usize,
}

/// The group an idle executor takes next: highest priority first, ties
/// broken by oldest member.
fn pick_next(state: &State) -> Option<GroupKey> {
    state
        .groups
        .iter()
        .min_by_key(|((_, rank, _), g)| (*rank, g.queue.front().map(|s| s.received)))
        .map(|(key, _)| key.clone())
}

/// Map a session error onto the wire's typed codes.
pub(crate) fn classify(err: &CoreError) -> ErrorCode {
    if err.is_overloaded() {
        ErrorCode::Overloaded
    } else if err.is_deadline_exceeded() {
        ErrorCode::DeadlineExceeded
    } else {
        match err {
            CoreError::NotFound(_) => ErrorCode::NotFound,
            CoreError::Invalid(_) => ErrorCode::Invalid,
            _ => ErrorCode::Internal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relserve_core::SessionConfig;
    use relserve_nn::init::seeded_rng;
    use relserve_nn::zoo;
    use relserve_runtime::TransferProfile;
    use std::time::Duration;

    fn test_session() -> Arc<InferenceSession> {
        let config = SessionConfig::builder()
            .db_memory_bytes(64 << 20)
            .buffer_pool_bytes(16 << 20)
            .memory_threshold_bytes(16 << 20)
            .block_size(64)
            .cores(2)
            .external_memory_bytes(64 << 20)
            .transfer(TransferProfile::instant())
            .build()
            .unwrap();
        let session = InferenceSession::open(config).unwrap();
        let mut rng = seeded_rng(77);
        session
            .load_model(zoo::fraud_fc_256(&mut rng).unwrap())
            .unwrap();
        Arc::new(session)
    }

    fn test_config(max_rows: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch_rows: max_rows,
            batch_cores: 1,
            architecture: Architecture::UdfCentric,
            admission: [
                AdmissionPolicy::for_class(Priority::Interactive),
                AdmissionPolicy::for_class(Priority::Standard),
                AdmissionPolicy::for_class(Priority::Batch),
            ],
            backlog_shed_rows: [None; 3],
            ladders: HashMap::new(),
        }
    }

    fn submission(
        id: u64,
        rows: usize,
        deadline: Option<Instant>,
        tx: &mpsc::Sender<Response>,
        counters: &Arc<ServeCounters>,
    ) -> Submission {
        Submission {
            id,
            class: Priority::Standard,
            deadline,
            model: "Fraud-FC-256".into(),
            rows,
            width: 28,
            data: (0..rows * 28)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.11)
                .collect(),
            received: Instant::now(),
            responder: Responder {
                sink: ResponseSink::Channel(tx.clone()),
                counters: Arc::clone(counters),
            },
            guess: None,
            shadow: false,
        }
    }

    #[test]
    fn coalesces_and_demuxes_per_request() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(64),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
            None,
        );
        let (tx, rx) = mpsc::channel();
        for (id, rows) in [(1u64, 3usize), (2, 5), (3, 1)] {
            batcher.submit(submission(id, rows, None, &tx, &counters));
        }
        let runner = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run_executor())
        };
        let mut got = HashMap::new();
        for _ in 0..3 {
            let resp = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            match resp {
                Response::Infer {
                    id, predictions, ..
                } => {
                    got.insert(id, predictions.len());
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(got, HashMap::from([(1, 3), (2, 5), (3, 1)]));
        let snap = counters.snapshot();
        assert_eq!(snap.batches, 1, "three requests fused into one batch");
        assert_eq!(snap.fused_rows, 9);
        batcher.shutdown();
        runner.join().unwrap();
    }

    /// Work-conserving dispatch: a lone submission is ready the instant it
    /// is buffered — no coalescing window — and an idle executor takes the
    /// highest class first even when a lower class arrived earlier.
    #[test]
    fn lone_submission_is_picked_the_instant_it_is_buffered() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(test_config(64), Arc::clone(&counters), session, None, None);
        let (tx, _rx) = mpsc::channel();
        let standard = ("Fraud-FC-256".to_string(), Priority::Standard.rank(), 28);
        batcher.submit(submission(1, 1, None, &tx, &counters));
        assert_eq!(
            pick_next(&batcher.state.lock().unwrap()),
            Some(standard.clone())
        );
        let mut urgent = submission(2, 1, None, &tx, &counters);
        urgent.class = Priority::Interactive;
        batcher.submit(urgent);
        let interactive = ("Fraud-FC-256".to_string(), Priority::Interactive.rank(), 28);
        assert_eq!(pick_next(&batcher.state.lock().unwrap()), Some(interactive));
        let first = batcher
            .next_batch()
            .expect("buffered work is taken at once");
        assert_eq!(
            (first.rank, first.members[0].id),
            (Priority::Interactive.rank(), 2)
        );
        let second = batcher
            .next_batch()
            .expect("buffered work is taken at once");
        assert_eq!((second.rank, second.members[0].id), (standard.1, 1));
        assert!(pick_next(&batcher.state.lock().unwrap()).is_none());
    }

    #[test]
    fn expired_deadline_is_rejected_before_admission() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let batcher = Batcher::new(
            test_config(64),
            Arc::clone(&counters),
            Arc::clone(&session),
            None,
            None,
        );
        let (tx, rx) = mpsc::channel();
        let expired = Instant::now() - Duration::from_millis(5);
        batcher.submit(submission(1, 2, Some(expired), &tx, &counters));
        batcher.submit(submission(2, 2, None, &tx, &counters));
        let runner = {
            let batcher = Arc::clone(&batcher);
            std::thread::spawn(move || batcher.run_executor())
        };
        let mut expired_seen = false;
        let mut ok_seen = false;
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
                Response::Error { id, code, .. } => {
                    assert_eq!((id, code), (1, ErrorCode::DeadlineExceeded));
                    expired_seen = true;
                }
                Response::Infer {
                    id, predictions, ..
                } => {
                    assert_eq!((id, predictions.len()), (2, 2));
                    ok_seen = true;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(expired_seen && ok_seen);
        assert_eq!(counters.snapshot().deadline_rejected, 1);
        batcher.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn drain_sheds_buffered_with_typed_error() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        // No executor runs yet, so submissions stay buffered until drain.
        let batcher = Batcher::new(test_config(64), Arc::clone(&counters), session, None, None);
        let (tx, rx) = mpsc::channel();
        batcher.submit(submission(1, 2, None, &tx, &counters));
        batcher.submit(submission(2, 2, None, &tx, &counters));
        assert_eq!(batcher.drain_shed(), 2);
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
                other => panic!("expected Draining, got {other:?}"),
            }
        }
        // Arrivals after the drain began get the same typed refusal.
        batcher.submit(submission(3, 1, None, &tx, &counters));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (3, ErrorCode::Draining));
            }
            other => panic!("expected Draining, got {other:?}"),
        }
        assert_eq!(counters.snapshot().drain.shed_requests, 3);
        // Executors observe shutdown with an empty buffer and exit.
        batcher.run_executor();
    }

    #[test]
    fn backlog_cap_sheds_at_submit() {
        let session = test_session();
        let counters = Arc::new(ServeCounters::default());
        let mut config = test_config(64);
        config.backlog_shed_rows[Priority::Standard.rank()] = Some(4);
        let batcher = Batcher::new(config, Arc::clone(&counters), session, None, None);
        let (tx, rx) = mpsc::channel();
        batcher.submit(submission(1, 4, None, &tx, &counters));
        batcher.submit(submission(2, 1, None, &tx, &counters));
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (2, ErrorCode::Overloaded));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(counters.snapshot().class(Priority::Standard).shed, 1);
    }
}
