//! The micro-batched session scheduler.
//!
//! [`SessionScheduler::run`] owns every open [`ClassifierSession`], stages
//! interleaved `(SessionId, chunk)` arrivals from an mpsc ingest queue, and
//! drains the staged sessions in micro-batches: per drain pass each dirty
//! session gets *one* [`ClassifierSession::advance`] call over its coalesced
//! pending samples, so per-chunk dispatch cost (queue traffic, map lookups,
//! decision plumbing) is amortized across every chunk that arrived since the
//! session's last turn. Decisions are emitted on a completion channel and
//! decided sessions are evicted immediately — a session never outlives its
//! final [`Decision`](sf_sdtw::Decision).
//!
//! # Parity invariant
//!
//! Scheduler output is bit-identical per read to driving the same sample
//! stream through [`ClassifierSession::push_chunk`]/`finalize` sequentially.
//! Micro-batching reorders work *across* sessions, never within one: a
//! session's chunks are coalesced in arrival order, and chunk-boundary
//! invariance (pinned by `tests/streaming_parity.rs`) guarantees that one
//! `advance` over a coalesced run equals the per-chunk pushes it replaced.
//! Pinned end-to-end by `tests/scheduler_parity.rs`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Mutex;

use sf_sdtw::{ClassifierSession, ReadClassifier, StreamClassification};
use sf_telemetry::Stopwatch;

use crate::telemetry;

/// Identifies one read's session across arrivals, completions and eviction.
/// Reads are one-shot: once a session with a given id has completed, later
/// arrivals carrying the same id are dropped as late chunks (the driver must
/// allocate fresh ids, e.g. a running per-flow-cell read counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// What arrived on the ingest queue for one session.
#[derive(Debug)]
enum ArrivalKind {
    /// The next chunk of raw ADC samples for the session.
    Chunk(Vec<u16>),
    /// The read ended naturally (pore finished the molecule): finalize the
    /// session once its buffered samples have been drained.
    End,
}

/// One ingest-queue element: a chunk of raw signal for a session, or the
/// session's natural end-of-read marker.
///
/// The queue-wait stopwatch starts at construction, so
/// `sched.chunk_queue_wait_ns` measures the full path from the producer to a
/// worker staging the arrival.
#[derive(Debug)]
pub struct Arrival {
    id: SessionId,
    kind: ArrivalKind,
    queued: Stopwatch,
}

impl Arrival {
    /// A chunk of raw ADC samples for session `id`.
    pub fn chunk(id: SessionId, samples: Vec<u16>) -> Self {
        Arrival {
            id,
            kind: ArrivalKind::Chunk(samples),
            queued: Stopwatch::start(),
        }
    }

    /// The natural end of session `id`'s read: no more signal will arrive,
    /// so the session is finalized after its buffered samples drain.
    pub fn end(id: SessionId) -> Self {
        Arrival {
            id,
            kind: ArrivalKind::End,
            queued: Stopwatch::start(),
        }
    }

    /// The session this arrival belongs to.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

/// One session's final decision, emitted on the completion channel the
/// moment the session is evicted.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct SessionOutcome {
    /// The session the outcome belongs to.
    pub id: SessionId,
    /// The resolved classification — identical to what a sequential
    /// `push_chunk`/`finalize` drive of the same sample stream returns.
    pub classification: StreamClassification,
}

/// Cap on coalesced samples fed to one session per drain pass; a session with
/// more buffered signal keeps its surplus and stays dirty for the next pass,
/// so one signal-heavy session cannot monopolize a batch. Four 400-sample
/// Read Until chunks: a session that fell one full recalibration interval
/// behind catches up in one pass.
pub const MAX_CHUNK_SAMPLES: usize = 1_600;

/// Micro-batch coalescing knobs for a [`SessionScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroBatchConfig {
    /// Cap on how many dirty sessions one drain pass takes from arrivals
    /// that are already queued. The scheduler never waits for a batch to
    /// fill: it drains as soon as the ingest queue runs dry, so this only
    /// bounds a pass under backlog, where batches fill to the cap.
    pub max_sessions: usize,
    /// Worker threads (sessions are sharded by id, each worker owns its
    /// shard). `0` means "use the machine's available parallelism".
    pub workers: usize,
}

impl MicroBatchConfig {
    /// Sets the per-pass dirty-session cap (clamped to at least 1).
    #[must_use]
    pub fn with_max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions.max(1);
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl Default for MicroBatchConfig {
    fn default() -> Self {
        MicroBatchConfig {
            // 32 sessions ≈ one MinKNOW poll's worth of active channels per
            // worker on a loaded flow cell: under backlog one pass amortizes
            // dispatch over that many reads, yet returns to the ingest queue
            // after about one poll's worth of work.
            max_sessions: 32,
            workers: 1,
        }
    }
}

/// Aggregate accounting of one [`SessionScheduler::run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerReport {
    /// Worker threads the run executed on.
    pub workers: usize,
    /// Sessions opened (one per distinct, non-late `SessionId` seen).
    pub sessions_opened: u64,
    /// Sessions finalized and evicted with an emitted outcome. Always equals
    /// `sessions_opened` once `run` returns: every remaining session is
    /// finalized on ingest disconnect.
    pub sessions_completed: u64,
    /// Drain passes executed.
    pub micro_batches: u64,
    /// Sessions advanced summed over all drain passes (occupancy numerator).
    pub batched_sessions: u64,
    /// Chunk arrivals staged into session buffers.
    pub chunks_staged: u64,
    /// Raw samples those chunks carried.
    pub samples_staged: u64,
    /// Arrivals dropped because their session had already completed — the
    /// signal a timely eject saved.
    pub late_chunks: u64,
}

impl SchedulerReport {
    /// Mean sessions advanced per micro-batch. It follows offered load:
    /// under light load arrivals rarely queue behind each other, so batches
    /// of 1–2 sessions are expected and lose no coalescing (a session's
    /// queued chunks still merge into one advance); under backlog batches
    /// fill toward `max_sessions`.
    pub fn mean_microbatch_sessions(&self) -> f64 {
        if self.micro_batches == 0 {
            return 0.0;
        }
        self.batched_sessions as f64 / self.micro_batches as f64
    }

    fn absorb(&mut self, stats: &WorkerStats) {
        self.sessions_opened += stats.opened;
        self.sessions_completed += stats.completed;
        self.micro_batches += stats.micro_batches;
        self.batched_sessions += stats.batched_sessions;
        self.chunks_staged += stats.chunks;
        self.samples_staged += stats.samples;
        self.late_chunks += stats.late_chunks;
    }
}

/// Per-worker plain-integer accounting, merged into the report at join.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    opened: u64,
    completed: u64,
    micro_batches: u64,
    batched_sessions: u64,
    chunks: u64,
    samples: u64,
    late_chunks: u64,
}

/// One open session plus its coalescing state.
struct Pending<'c> {
    session: Box<dyn ClassifierSession + 'c>,
    /// Arrived-but-not-yet-advanced samples, in arrival order.
    buf: Vec<u16>,
    /// The read ended naturally; finalize once `buf` drains.
    ended: bool,
    /// Already queued in the worker's dirty list.
    staged: bool,
}

/// One worker's shard: the sessions it owns, the staged (dirty) ids awaiting
/// a drain turn, and tombstones of completed ids for late-chunk dropping.
struct Worker<'c> {
    sessions: HashMap<u64, Pending<'c>>,
    dirty: VecDeque<u64>,
    done: HashSet<u64>,
    stats: WorkerStats,
}

impl<'c> Worker<'c> {
    fn new() -> Self {
        Worker {
            sessions: HashMap::new(),
            dirty: VecDeque::new(),
            done: HashSet::new(),
            stats: WorkerStats::default(),
        }
    }

    /// Files one arrival into its session's coalescing buffer, opening the
    /// session on first contact and marking it dirty for the next drain.
    fn stage<C: ReadClassifier>(&mut self, classifier: &'c C, arrival: Arrival) {
        let m = telemetry::metrics();
        m.chunk_queue_wait_ns.record(arrival.queued.elapsed_ns());
        let id = arrival.id.0;
        if self.done.contains(&id) {
            self.stats.late_chunks += 1;
            return;
        }
        let (opened, pending) = match self.sessions.entry(id) {
            Entry::Occupied(e) => (false, e.into_mut()),
            Entry::Vacant(e) => (
                true,
                e.insert(Pending {
                    session: classifier.start_read(),
                    buf: Vec::new(),
                    ended: false,
                    staged: false,
                }),
            ),
        };
        if opened {
            self.stats.opened += 1;
            telemetry::sessions_opened(1);
        }
        match arrival.kind {
            ArrivalKind::Chunk(samples) => {
                self.stats.chunks += 1;
                self.stats.samples += samples.len() as u64;
                pending.buf.extend_from_slice(&samples);
            }
            ArrivalKind::End => pending.ended = true,
        }
        if !pending.staged {
            pending.staged = true;
            self.dirty.push_back(id);
        }
    }

    /// One micro-batch: advance every dirty session over its coalesced
    /// buffer (capped at [`MAX_CHUNK_SAMPLES`]), finalize and evict sessions
    /// that committed or whose read ended, keep signal-heavy sessions dirty.
    fn drain(&mut self, completions: &Sender<SessionOutcome>) {
        let batch = std::mem::take(&mut self.dirty);
        if batch.is_empty() {
            return;
        }
        let mut advanced = 0u64;
        let mut evicted = 0u64;
        // sf-lint: hot-path
        for &id in &batch {
            let finished = {
                let Some(pending) = self.sessions.get_mut(&id) else {
                    continue;
                };
                let take = pending.buf.len().min(MAX_CHUNK_SAMPLES);
                let state = if take > 0 {
                    let Pending { session, buf, .. } = pending;
                    session.advance(&buf[..take])
                } else {
                    pending.session.state()
                };
                if take > 0 {
                    pending.buf.drain(..take);
                }
                advanced += 1;
                state.is_final() || (pending.ended && pending.buf.is_empty())
            };
            if finished {
                if let Some(mut pending) = self.sessions.remove(&id) {
                    let outcome = pending.session.finalize();
                    self.done.insert(id);
                    evicted += 1;
                    // A dropped completion receiver only means nobody is
                    // listening; the scheduler still drains and evicts.
                    let _ = completions.send(SessionOutcome {
                        id: SessionId(id),
                        classification: outcome,
                    });
                }
            } else if let Some(pending) = self.sessions.get_mut(&id) {
                if pending.buf.is_empty() {
                    pending.staged = false;
                } else {
                    self.dirty.push_back(id);
                }
            }
        }
        // sf-lint: end-hot-path
        self.stats.micro_batches += 1;
        self.stats.batched_sessions += advanced;
        self.stats.completed += evicted;
        let m = telemetry::metrics();
        m.microbatch_sessions.record(advanced);
        if evicted > 0 {
            m.evictions.add(evicted);
            telemetry::sessions_evicted(evicted);
        }
    }

    /// Ingest disconnected: drain the remaining coalesced signal, then
    /// finalize every still-open session on what it saw — the same contract
    /// as a read (or the whole run) ending naturally.
    fn finish(&mut self, completions: &Sender<SessionOutcome>) {
        while !self.dirty.is_empty() {
            self.drain(completions);
        }
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        let mut evicted = 0u64;
        for id in ids {
            if let Some(mut pending) = self.sessions.remove(&id) {
                let outcome = pending.session.finalize();
                self.done.insert(id);
                evicted += 1;
                let _ = completions.send(SessionOutcome {
                    id: SessionId(id),
                    classification: outcome,
                });
            }
        }
        if evicted > 0 {
            self.stats.completed += evicted;
            telemetry::metrics().evictions.add(evicted);
            telemetry::sessions_evicted(evicted);
        }
    }

    /// The work-conserving worker loop. Block for one arrival only when no
    /// session is dirty; then stage every arrival already queued, until the
    /// queue is empty or `max_sessions` sessions are dirty; then drain at
    /// once. Repeat until disconnect. The worker never idles while it holds
    /// staged signal, so a partial batch adds no decision latency.
    fn run<C: ReadClassifier>(
        mut self,
        classifier: &'c C,
        config: &MicroBatchConfig,
        arrivals: Receiver<Arrival>,
        completions: &Sender<SessionOutcome>,
    ) -> WorkerStats {
        let max_sessions = config.max_sessions.max(1);
        let mut disconnected = false;
        while !disconnected {
            if self.dirty.is_empty() {
                match arrivals.recv() {
                    Ok(arrival) => self.stage(classifier, arrival),
                    Err(_) => break,
                }
            }
            while self.dirty.len() < max_sessions {
                match arrivals.try_recv() {
                    Ok(arrival) => self.stage(classifier, arrival),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            self.drain(completions);
        }
        self.finish(completions);
        self.stats
    }
}

/// Owns thousands of concurrently open classifier sessions and advances
/// them in micro-batches (μ-cuDNN-style batching *below* the per-read
/// request boundary).
///
/// # Examples
///
/// Three interleaved reads through one scheduler — outcomes equal the
/// sequential per-read drive of the same chunks:
///
/// ```
/// use sf_sched::{Arrival, MicroBatchConfig, SessionId, SessionScheduler};
/// use sf_sdtw::{FilterConfig, ReadClassifier, SquiggleFilter};
/// use sf_pore_model::KmerModel;
/// use sf_genome::random::random_genome;
/// use std::sync::mpsc;
///
/// let model = KmerModel::synthetic_r94(0);
/// let genome = random_genome(5, 1_200);
/// let filter = SquiggleFilter::from_genome(&model, &genome, FilterConfig::hardware(f64::MAX));
///
/// let reads: Vec<Vec<u16>> = (0..3).map(|i| vec![400 + i as u16; 2_500]).collect();
/// let (ingest_tx, ingest_rx) = mpsc::channel();
/// let (done_tx, done_rx) = mpsc::channel();
/// // Interleave: one 400-sample chunk per read per round, like a flow cell.
/// for offset in (0..2_500).step_by(400) {
///     for (i, read) in reads.iter().enumerate() {
///         let chunk = read[offset..(offset + 400).min(read.len())].to_vec();
///         ingest_tx.send(Arrival::chunk(SessionId(i as u64), chunk)).unwrap();
///     }
/// }
/// for i in 0..reads.len() {
///     ingest_tx.send(Arrival::end(SessionId(i as u64))).unwrap();
/// }
/// drop(ingest_tx);
///
/// let scheduler = SessionScheduler::new(MicroBatchConfig::default());
/// let report = scheduler.run(&filter, ingest_rx, &done_tx);
/// assert_eq!(report.sessions_completed, 3);
/// for outcome in done_rx.try_iter() {
///     let want = filter.classify_stream(
///         &sf_squiggle::RawSquiggle::new(reads[outcome.id.0 as usize].clone(), 4_000.0),
///     );
///     assert_eq!(outcome.classification, want);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SessionScheduler {
    config: MicroBatchConfig,
}

/// Bound of each worker's routed-arrival queue: deep enough to keep a
/// worker fed across a drain pass, shallow enough that a stalled worker
/// back-pressures the router (and through it the ingest queue) instead of
/// buffering unboundedly.
const ROUTE_QUEUE_DEPTH: usize = 1_024;

impl SessionScheduler {
    /// A scheduler with the given micro-batch configuration.
    pub fn new(config: MicroBatchConfig) -> Self {
        SessionScheduler { config }
    }

    /// The micro-batch configuration.
    pub fn config(&self) -> &MicroBatchConfig {
        &self.config
    }

    /// Worker count after resolving `workers == 0` to the machine's
    /// available parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.config.workers > 0 {
            self.config.workers
        } else {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        }
    }

    /// Runs the scheduler until `ingest` disconnects and every open session
    /// has been finalized, emitting each session's outcome on `completions`
    /// the moment it is decided.
    ///
    /// Blocks the calling thread. With one worker the loop runs directly on
    /// the caller (no routing hop); with more, sessions are sharded by
    /// `SessionId` across scoped worker threads — a session's chunks always
    /// land on the same worker, preserving per-session arrival order — and
    /// the calling thread routes arrivals over bounded per-worker queues, so
    /// a stalled worker back-pressures the ingest side rather than buffering
    /// without limit.
    pub fn run<C: ReadClassifier + Sync>(
        &self,
        classifier: &C,
        ingest: Receiver<Arrival>,
        completions: &Sender<SessionOutcome>,
    ) -> SchedulerReport {
        let workers = self.resolved_workers();
        let mut report = SchedulerReport {
            workers,
            ..SchedulerReport::default()
        };
        if workers == 1 {
            let stats = Worker::new().run(classifier, &self.config, ingest, completions);
            report.absorb(&stats);
            return report;
        }

        let merged: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::with_capacity(workers));
        std::thread::scope(|scope| {
            let mut routes: Vec<SyncSender<Arrival>> = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = std::sync::mpsc::sync_channel(ROUTE_QUEUE_DEPTH);
                routes.push(tx);
                let completions = completions.clone();
                let config = &self.config;
                let merged = &merged;
                scope.spawn(move || {
                    let stats = Worker::new().run(classifier, config, rx, &completions);
                    // sf-lint: allow(panic) -- poisoned only if a sibling worker panicked
                    merged.lock().expect("worker stats").push(stats);
                });
            }
            // Route on the calling thread: shard by id so one session's
            // arrivals stay ordered on one worker. A full route queue blocks
            // here, propagating backpressure to the ingest side.
            for arrival in ingest.iter() {
                let shard = (arrival.id().0 % workers as u64) as usize;
                let _ = routes[shard].send(arrival);
            }
            drop(routes);
        });
        // sf-lint: allow(panic) -- poisoned only if a worker panicked
        for stats in merged.into_inner().expect("worker stats").iter() {
            report.absorb(stats);
        }
        report
    }

    /// Classifies whole reads that are already in hand, returning one
    /// outcome per read in input order.
    ///
    /// Each read arrives as one chunk followed by its end marker, so this is
    /// [`run`](Self::run) over whole-read arrivals: outcomes are
    /// bit-identical to [`ReadClassifier::classify_stream`] on each read, and
    /// `workers` sets the thread count.
    pub fn classify_batch<'r, C: ReadClassifier + Sync>(
        &self,
        classifier: &C,
        reads: impl IntoIterator<Item = &'r [u16]>,
    ) -> Vec<StreamClassification> {
        let (ingest_tx, ingest_rx) = std::sync::mpsc::channel();
        for (i, read) in reads.into_iter().enumerate() {
            let id = SessionId(i as u64);
            let _ = ingest_tx.send(Arrival::chunk(id, read.to_vec()));
            let _ = ingest_tx.send(Arrival::end(id));
        }
        drop(ingest_tx);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let _ = self.run(classifier, ingest_rx, &done_tx);
        drop(done_tx);
        // Every opened session is finalized exactly once, so the outcomes
        // are exactly the ids 0..n.
        let mut outcomes: Vec<SessionOutcome> = done_rx.into_iter().collect();
        outcomes.sort_unstable_by_key(|o| o.id);
        outcomes.into_iter().map(|o| o.classification).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_sdtw::{Decision, FilterVerdict, SessionState};
    use std::sync::mpsc;

    /// Deterministic stand-in classifier: a session sums its samples and
    /// rejects as soon as `budget` samples have been seen with an
    /// even sample-sum, accepts on an odd sum; short reads resolve at
    /// finalize on the same rule. Score is the sum, so any coalescing or
    /// reordering bug shows up as a score mismatch, not just a verdict flip.
    struct ParityProbe {
        budget: usize,
    }

    struct ProbeSession {
        seen: usize,
        sum: u64,
        budget: usize,
    }

    impl ClassifierSession for ProbeSession {
        fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
            for &s in chunk {
                if self.decision().is_final() {
                    break;
                }
                self.seen += 1;
                self.sum += u64::from(s);
            }
            self.decision()
        }

        fn decision(&self) -> Decision {
            if self.seen < self.budget {
                Decision::Wait
            } else if self.sum % 2 == 0 {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }

        fn samples_consumed(&self) -> usize {
            self.seen
        }

        fn finalize(&mut self) -> StreamClassification {
            let verdict = if self.sum % 2 == 0 {
                FilterVerdict::Reject
            } else {
                FilterVerdict::Accept
            };
            StreamClassification {
                verdict,
                score: self.sum as f64,
                result: None,
                samples_consumed: self.seen,
                decided_early: false,
                target: None,
            }
        }
    }

    impl ReadClassifier for ParityProbe {
        fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
            Box::new(ProbeSession {
                seen: 0,
                sum: 0,
                budget: self.budget,
            })
        }

        fn max_decision_samples(&self) -> usize {
            self.budget
        }
    }

    fn test_reads(n: usize) -> Vec<Vec<u16>> {
        (0..n)
            .map(|i| {
                let len = 40 + (i * 37) % 160;
                (0..len)
                    .map(|j| ((i * 131 + j * 17) % 700) as u16)
                    .collect()
            })
            .collect()
    }

    fn interleaved_arrivals(reads: &[Vec<u16>], chunk: usize) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        let rounds = reads
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .div_ceil(chunk);
        for round in 0..rounds {
            for (i, read) in reads.iter().enumerate() {
                let start = round * chunk;
                if start < read.len() {
                    let end = (start + chunk).min(read.len());
                    arrivals.push(Arrival::chunk(
                        SessionId(i as u64),
                        read[start..end].to_vec(),
                    ));
                    if end == read.len() {
                        arrivals.push(Arrival::end(SessionId(i as u64)));
                    }
                }
            }
        }
        arrivals
    }

    fn run_scheduler(
        config: MicroBatchConfig,
        probe: &ParityProbe,
        arrivals: Vec<Arrival>,
    ) -> (SchedulerReport, HashMap<u64, StreamClassification>) {
        let (ingest_tx, ingest_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        for arrival in arrivals {
            ingest_tx.send(arrival).expect("receiver alive");
        }
        drop(ingest_tx);
        let report = SessionScheduler::new(config).run(probe, ingest_rx, &done_tx);
        let mut outcomes = HashMap::new();
        for outcome in done_rx.try_iter() {
            let previous = outcomes.insert(outcome.id.0, outcome.classification);
            assert!(previous.is_none(), "duplicate outcome for {:?}", outcome.id);
        }
        (report, outcomes)
    }

    #[test]
    fn interleaved_sessions_match_sequential_drive() {
        let probe = ParityProbe { budget: 100 };
        let reads = test_reads(9);
        for chunk in [1usize, 7, 64] {
            for workers in [1usize, 3] {
                let config = MicroBatchConfig::default().with_workers(workers);
                let (report, outcomes) =
                    run_scheduler(config, &probe, interleaved_arrivals(&reads, chunk));
                assert_eq!(report.sessions_opened, reads.len() as u64);
                assert_eq!(report.sessions_completed, reads.len() as u64);
                for (i, read) in reads.iter().enumerate() {
                    let mut session = probe.start_read();
                    for c in read.chunks(chunk) {
                        let _ = session.push_chunk(c);
                    }
                    let want = session.finalize();
                    assert_eq!(
                        outcomes.get(&(i as u64)),
                        Some(&want),
                        "read {i}, chunk {chunk}, workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn coalescing_cap_keeps_surplus_for_the_next_batch() {
        let len = 3 * MAX_CHUNK_SAMPLES + 100;
        let probe = ParityProbe { budget: 2 * len };
        // One read far larger than the cap, delivered as one giant chunk.
        let mut arrivals = vec![Arrival::chunk(SessionId(0), vec![3u16; len])];
        arrivals.push(Arrival::end(SessionId(0)));
        let (report, outcomes) = run_scheduler(MicroBatchConfig::default(), &probe, arrivals);
        // At most MAX_CHUNK_SAMPLES per pass: the session stayed dirty across
        // ceil(len / MAX_CHUNK_SAMPLES) = 4 passes.
        let passes = len.div_ceil(MAX_CHUNK_SAMPLES) as u64;
        assert!(
            report.micro_batches >= passes,
            "got {}",
            report.micro_batches
        );
        let got = outcomes.get(&0).expect("read resolved");
        assert_eq!(got.samples_consumed, len);
        assert_eq!(got.score, 3.0 * len as f64);
    }

    #[test]
    fn no_session_outlives_its_decision() {
        let probe = ParityProbe { budget: 50 };
        let id = SessionId(7);
        let mut arrivals = vec![Arrival::chunk(id, vec![2u16; 60])];
        // Signal that keeps arriving after the decision fired at sample 50:
        // the evicted session must not resurrect, the chunks count as late.
        for _ in 0..5 {
            arrivals.push(Arrival::chunk(id, vec![9u16; 40]));
        }
        arrivals.push(Arrival::end(id));
        // One dirty session per pass: every staged arrival drains at once.
        let config = MicroBatchConfig::default().with_max_sessions(1);
        let (report, outcomes) = run_scheduler(config, &probe, arrivals);
        assert_eq!(report.sessions_opened, 1);
        assert_eq!(report.sessions_completed, 1);
        assert!(
            report.late_chunks >= 1,
            "late chunks: {}",
            report.late_chunks
        );
        let got = outcomes.get(&7).expect("one outcome");
        // Decided exactly at the budget: the post-decision signal never
        // reached the session (sum stays 2 × 50).
        assert_eq!(got.samples_consumed, 50);
        assert_eq!(got.score, 100.0);
    }

    #[test]
    fn disconnect_finalizes_short_reads() {
        let probe = ParityProbe { budget: 1_000 };
        // Two reads end (End marker), one is cut off by disconnect mid-read.
        let arrivals = vec![
            Arrival::chunk(SessionId(0), vec![1u16; 30]),
            Arrival::end(SessionId(0)),
            Arrival::chunk(SessionId(1), vec![2u16; 40]),
            Arrival::end(SessionId(1)),
            Arrival::chunk(SessionId(2), vec![3u16; 50]),
        ];
        let (report, outcomes) = run_scheduler(MicroBatchConfig::default(), &probe, arrivals);
        assert_eq!(report.sessions_completed, 3);
        assert_eq!(outcomes.get(&0).map(|c| c.samples_consumed), Some(30));
        assert_eq!(outcomes.get(&1).map(|c| c.samples_consumed), Some(40));
        assert_eq!(outcomes.get(&2).map(|c| c.samples_consumed), Some(50));
        assert_eq!(outcomes.get(&0).map(|c| c.score), Some(30.0));
        assert_eq!(outcomes.get(&2).map(|c| c.score), Some(150.0));
    }

    #[test]
    fn empty_ingest_is_an_empty_report() {
        let probe = ParityProbe { budget: 10 };
        let (report, outcomes) = run_scheduler(MicroBatchConfig::default(), &probe, Vec::new());
        assert_eq!(report.sessions_opened, 0);
        assert_eq!(report.sessions_completed, 0);
        assert_eq!(report.micro_batches, 0);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn builders_clamp_and_compose() {
        let config = MicroBatchConfig::default()
            .with_max_sessions(0)
            .with_workers(2);
        assert_eq!(config.max_sessions, 1);
        assert_eq!(SessionScheduler::new(config).resolved_workers(), 2);
        assert!(SessionScheduler::new(config.with_workers(0)).resolved_workers() >= 1);
    }

    #[test]
    fn idle_live_ingest_emits_decided_outcome() {
        let probe = ParityProbe { budget: 10 };
        for workers in [1usize, 3] {
            let scheduler =
                SessionScheduler::new(MicroBatchConfig::default().with_workers(workers));
            let (done_tx, done_rx) = mpsc::channel();
            let report = std::thread::scope(|scope| {
                // The sender lives inside the scope so a failed assertion
                // drops it while unwinding and the scheduler can return.
                let (ingest_tx, ingest_rx) = mpsc::channel();
                let run = scope.spawn(|| scheduler.run(&probe, ingest_rx, &done_tx));
                // One chunk past the budget decides. The sender stays
                // connected and idle, so only a scheduler that drains without
                // waiting for more arrivals (or disconnect) emits the outcome.
                ingest_tx
                    .send(Arrival::chunk(SessionId(5), vec![1u16; 12]))
                    .expect("scheduler alive");
                let outcome = done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|e| {
                        panic!("workers {workers}: no outcome on live ingest: {e}")
                    });
                assert_eq!(outcome.id, SessionId(5));
                assert_eq!(outcome.classification.samples_consumed, 10);
                assert_eq!(outcome.classification.score, 10.0);
                drop(ingest_tx);
                run.join().expect("scheduler thread")
            });
            assert_eq!(report.sessions_completed, 1);
        }
    }

    #[test]
    fn classify_batch_returns_outcomes_in_input_order() {
        // Every read is longer than the coalescing cap, so each one spans
        // several drain passes; the budget falls inside some reads and
        // beyond the end of others.
        let probe = ParityProbe {
            budget: 2 * MAX_CHUNK_SAMPLES + 500,
        };
        let mut reads: Vec<Vec<u16>> = (0..9)
            .map(|i| {
                let len = MAX_CHUNK_SAMPLES + 1 + (i * 701) % (3 * MAX_CHUNK_SAMPLES);
                (0..len)
                    .map(|j| ((i * 131 + j * 17) % 700) as u16)
                    .collect()
            })
            .collect();
        reads.push(Vec::new());
        let want: Vec<StreamClassification> = reads
            .iter()
            .map(|read| {
                let mut session = probe.start_read();
                let _ = session.push_chunk(read);
                session.finalize()
            })
            .collect();
        for workers in [1usize, 3] {
            let scheduler =
                SessionScheduler::new(MicroBatchConfig::default().with_workers(workers));
            let got = scheduler.classify_batch(&probe, reads.iter().map(Vec::as_slice));
            assert_eq!(got, want, "workers {workers}");
            assert!(scheduler
                .classify_batch(&probe, std::iter::empty::<&[u16]>())
                .is_empty());
        }
    }

    #[test]
    fn end_without_chunks_still_resolves() {
        let probe = ParityProbe { budget: 10 };
        let arrivals = vec![Arrival::end(SessionId(4))];
        let (report, outcomes) = run_scheduler(MicroBatchConfig::default(), &probe, arrivals);
        assert_eq!(report.sessions_completed, 1);
        assert_eq!(outcomes.get(&4).map(|c| c.samples_consumed), Some(0));
    }

    #[test]
    fn session_state_snapshot_is_consistent() {
        let probe = ParityProbe { budget: 4 };
        let mut session = probe.start_read();
        let state = session.advance(&[1, 1]);
        assert_eq!(
            state,
            SessionState {
                decision: Decision::Wait,
                samples_consumed: 2
            }
        );
        let state = session.advance(&[1, 0, 9]);
        assert_eq!(state.decision, Decision::Accept);
        assert_eq!(state.samples_consumed, 4);
        assert_eq!(session.state(), state);
    }
}
