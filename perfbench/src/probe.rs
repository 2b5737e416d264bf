//! Measurement from outside the program: a forwarding [`ReadClassifier`]
//! wrapper that times the calls into a classifier (the per-crate time
//! ledger) and records per-session outcomes, plus the scheduler thread's
//! CPU accounting from `/proc/thread-self/schedstat`.
//!
//! The wrapper forwards every [`ClassifierSession`] method explicitly —
//! `advance` and `state` included, which have default bodies — so the
//! wrapped classifier runs exactly the code paths it runs bare. The
//! benchmark's output check then compares wrapped outcomes with a bare
//! sequential drive, bit for bit.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use sf_sdtw::{ClassifierSession, Decision, ReadClassifier, SessionState, StreamClassification};

/// On-CPU and run-queue nanoseconds of the calling thread, with the wall
/// clock at the moment they were read.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTimes {
    /// Nanoseconds the thread has run on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds the thread has waited on a run queue.
    pub runqueue_ns: u64,
    /// When the counters were read.
    pub at: Instant,
}

impl ThreadTimes {
    /// Reads the calling thread's scheduler statistics. Reads as zero where
    /// `/proc/thread-self/schedstat` is unavailable.
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        ThreadTimes {
            on_cpu_ns: fields.next().unwrap_or(0),
            runqueue_ns: fields.next().unwrap_or(0),
            at: Instant::now(),
        }
    }

    /// What the thread did between `earlier` and `self`.
    pub fn since(&self, earlier: &ThreadTimes) -> ThreadSpan {
        ThreadSpan {
            on_cpu_s: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns) as f64 * 1e-9,
            runqueue_s: self.runqueue_ns.saturating_sub(earlier.runqueue_ns) as f64 * 1e-9,
            wall_s: self.at.saturating_duration_since(earlier.at).as_secs_f64(),
        }
    }
}

/// A thread's accounting over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadSpan {
    /// Seconds on a CPU.
    pub on_cpu_s: f64,
    /// Seconds runnable but waiting for a CPU.
    pub runqueue_s: f64,
    /// Wall-clock seconds of the interval.
    pub wall_s: f64,
}

impl ThreadSpan {
    fn add(&mut self, other: &ThreadSpan) {
        self.on_cpu_s += other.on_cpu_s;
        self.runqueue_s += other.runqueue_s;
        self.wall_s += other.wall_s;
    }

    /// Seconds the thread was neither running nor runnable: blocked waiting
    /// for work.
    pub fn idle_s(&self) -> f64 {
        (self.wall_s - self.on_cpu_s - self.runqueue_s).max(0.0)
    }
}

/// Which call of the outer (scheduler-facing) session is on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Start,
    Advance,
    Finalize,
}

thread_local! {
    /// Set by the outer wrapper around its forwarded calls so inner (per
    /// shard) wrappers can attribute their time to the outer call that
    /// caused it. Sessions run on one scheduler thread, so this is exact.
    static PHASE: Cell<Phase> = const { Cell::new(Phase::Idle) };
}

/// A nanosecond accumulator split by the outer phase that was running.
#[derive(Debug, Default)]
struct PhaseNs {
    start: AtomicU64,
    advance: AtomicU64,
    finalize: AtomicU64,
}

impl PhaseNs {
    fn add(&self, phase: Phase, ns: u64) {
        let slot = match phase {
            Phase::Start => &self.start,
            Phase::Advance | Phase::Idle => &self.advance,
            Phase::Finalize => &self.finalize,
        };
        slot.fetch_add(ns, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        load(&self.start) + load(&self.advance) + load(&self.finalize)
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Call times collected by timing probes: the outer classifier's calls by
/// method, and the inner (per-shard) classifiers' calls by the outer call
/// they ran under. Statistics only, so every update is `Relaxed`.
#[derive(Debug, Default)]
pub struct Ledger {
    outer: PhaseNs,
    inner: PhaseNs,
    advance_calls: AtomicU64,
    advanced_samples: AtomicU64,
    sessions: AtomicU64,
    /// Scheduler-thread accounting, when [`Ledger::sampling_thread`] asked
    /// for it.
    thread: Mutex<ThreadAccount>,
    sample_thread: bool,
}

/// Scheduler-thread accounting across runs: each scheduler thread is
/// sampled from its first session start to its last finalize, and the
/// spans of finished threads are summed.
#[derive(Debug, Default)]
struct ThreadAccount {
    current: Option<(ThreadId, ThreadTimes, ThreadTimes)>,
    finished: ThreadSpan,
}

impl ThreadAccount {
    fn total(&self) -> ThreadSpan {
        let mut total = self.finished;
        if let Some((_, first, last)) = &self.current {
            total.add(&last.since(first));
        }
        total
    }
}

impl Ledger {
    /// A ledger that also samples the calling scheduler thread's schedstat
    /// at the first session start and at every finalize — for runs where
    /// the scheduler thread is not the benchmark's own.
    pub fn sampling_thread() -> Self {
        Ledger {
            sample_thread: true,
            ..Ledger::default()
        }
    }

    /// A summary of everything recorded so far.
    pub fn totals(&self) -> LedgerTotals {
        let thread = self.sample_thread.then(|| {
            self.thread
                .lock()
                .expect("ledger thread sample poisoned")
                .total()
        });
        LedgerTotals {
            outer_start_s: load(&self.outer.start) as f64 * 1e-9,
            outer_advance_s: load(&self.outer.advance) as f64 * 1e-9,
            outer_finalize_s: load(&self.outer.finalize) as f64 * 1e-9,
            inner_start_s: load(&self.inner.start) as f64 * 1e-9,
            inner_advance_s: load(&self.inner.advance) as f64 * 1e-9,
            inner_finalize_s: load(&self.inner.finalize) as f64 * 1e-9,
            inner_total_s: self.inner.total() as f64 * 1e-9,
            advance_calls: load(&self.advance_calls),
            advanced_samples: load(&self.advanced_samples),
            sessions: load(&self.sessions),
            thread,
        }
    }

    fn sample_thread(&self, first: bool) {
        if !self.sample_thread {
            return;
        }
        let now = ThreadTimes::now();
        let id = std::thread::current().id();
        let mut account = self.thread.lock().expect("ledger thread sample poisoned");
        match account.current.as_mut() {
            Some((current, _, last)) if *current == id && !first => *last = now,
            Some((current, _, _)) if *current == id => {}
            _ if first => {
                if let Some((_, start, last)) = account.current.take() {
                    account.finished.add(&last.since(&start));
                }
                account.current = Some((id, now, now));
            }
            _ => {}
        }
    }
}

/// Seconds (and counts) summed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerTotals {
    /// Outer `start_read` time.
    pub outer_start_s: f64,
    /// Outer `advance`/`push_chunk` time.
    pub outer_advance_s: f64,
    /// Outer `finalize` time.
    pub outer_finalize_s: f64,
    /// Inner time spent under outer `start_read`.
    pub inner_start_s: f64,
    /// Inner time spent under outer `advance`.
    pub inner_advance_s: f64,
    /// Inner time spent under outer `finalize`.
    pub inner_finalize_s: f64,
    /// All inner time.
    pub inner_total_s: f64,
    /// Outer `advance`/`push_chunk` calls.
    pub advance_calls: u64,
    /// Samples passed to those calls.
    pub advanced_samples: u64,
    /// Outer sessions opened.
    pub sessions: u64,
    /// Scheduler-thread accounting, when sampled by the ledger.
    pub thread: Option<ThreadSpan>,
}

impl LedgerTotals {
    /// Everything the scheduler spent inside the classifier.
    pub fn busy_s(&self) -> f64 {
        self.outer_start_s + self.outer_advance_s + self.outer_finalize_s
    }

    /// Sharded-session advance time not spent in a shard: the fan-out.
    pub fn fanout_s(&self) -> f64 {
        self.outer_advance_s - self.inner_advance_s
    }

    /// Sharded-session finalize time not spent in a shard: the merge.
    pub fn merge_s(&self) -> f64 {
        self.outer_finalize_s - self.inner_finalize_s
    }
}

/// One session's outcome as seen through a recording probe.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Fingerprint of the first samples the session saw (see
    /// [`fingerprint`]); identifies the read without an id.
    pub fingerprint: Option<u64>,
    /// When the session was opened.
    pub opened: Instant,
    /// When the session was finalized.
    pub finalized: Instant,
    /// The outcome the session produced.
    pub outcome: StreamClassification,
}

/// Samples a read must start with for [`fingerprint`] to identify it.
pub const FINGERPRINT_SAMPLES: usize = 32;

/// FNV-1a over the first [`FINGERPRINT_SAMPLES`] samples; `None` when there
/// are fewer.
pub fn fingerprint(samples: &[u16]) -> Option<u64> {
    let head = samples.get(..FINGERPRINT_SAMPLES)?;
    Some(head.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &s| {
        (hash ^ u64::from(s)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

/// Whether a probe is the classifier the scheduler sees, or one shard
/// inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The scheduler-facing classifier.
    Outer,
    /// A classifier called from inside the outer one (a shard).
    Inner,
}

/// A forwarding classifier that optionally times calls into a [`Ledger`]
/// and optionally records outcomes.
pub struct Probe<'a, C: ?Sized> {
    inner: &'a C,
    role: Role,
    ledger: Option<&'a Ledger>,
    records: Option<&'a Mutex<Vec<Record>>>,
}

impl<'a, C: ReadClassifier + ?Sized> Probe<'a, C> {
    /// Wraps `inner`.
    pub fn new(inner: &'a C, role: Role) -> Self {
        Probe {
            inner,
            role,
            ledger: None,
            records: None,
        }
    }

    /// Times every call into `ledger`.
    pub fn timed(mut self, ledger: &'a Ledger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Appends one [`Record`] per finalized session to `records`.
    pub fn recording(mut self, records: &'a Mutex<Vec<Record>>) -> Self {
        self.records = Some(records);
        self
    }
}

impl<C: ReadClassifier + ?Sized> ReadClassifier for Probe<'_, C> {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        let clock = self.ledger.map(|_| Instant::now());
        let opened = Instant::now();
        let previous = self.enter(Phase::Start);
        let session = self.inner.start_read();
        self.leave(previous, Phase::Start, clock);
        if let Some(ledger) = self.ledger {
            if self.role == Role::Outer {
                ledger.sessions.fetch_add(1, Ordering::Relaxed);
                ledger.sample_thread(true);
            }
        }
        Box::new(ProbeSession {
            probe: self,
            session,
            opened,
            fingerprint: None,
            seen_first: false,
        })
    }

    fn max_decision_samples(&self) -> usize {
        self.inner.max_decision_samples()
    }
}

impl<C: ?Sized> Probe<'_, C> {
    /// Marks `phase` as running (outer probes only) and returns the phase
    /// it replaced.
    fn enter(&self, phase: Phase) -> Phase {
        match (self.role, self.ledger) {
            (Role::Outer, Some(_)) => PHASE.with(|p| p.replace(phase)),
            _ => Phase::Idle,
        }
    }

    /// Restores the previous phase and books the call's time.
    fn leave(&self, previous: Phase, phase: Phase, clock: Option<Instant>) {
        let (Some(ledger), Some(clock)) = (self.ledger, clock) else {
            return;
        };
        let ns = clock.elapsed().as_nanos() as u64;
        match self.role {
            Role::Outer => {
                PHASE.with(|p| p.set(previous));
                ledger.outer.add(phase, ns);
            }
            Role::Inner => ledger.inner.add(PHASE.with(Cell::get), ns),
        }
    }
}

struct ProbeSession<'a, C: ?Sized> {
    probe: &'a Probe<'a, C>,
    session: Box<dyn ClassifierSession + 'a>,
    opened: Instant,
    fingerprint: Option<u64>,
    seen_first: bool,
}

impl<C: ?Sized> ProbeSession<'_, C> {
    fn note_samples(&mut self, samples: &[u16]) {
        if let Some(ledger) = self.probe.ledger {
            if self.probe.role == Role::Outer {
                ledger.advance_calls.fetch_add(1, Ordering::Relaxed);
                ledger
                    .advanced_samples
                    .fetch_add(samples.len() as u64, Ordering::Relaxed);
            }
        }
        if self.probe.records.is_some() && !self.seen_first && !samples.is_empty() {
            self.seen_first = true;
            self.fingerprint = fingerprint(samples);
        }
    }

    fn clock(&self) -> Option<Instant> {
        self.probe.ledger.map(|_| Instant::now())
    }
}

impl<C: ?Sized> ClassifierSession for ProbeSession<'_, C> {
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
        self.note_samples(chunk);
        let clock = self.clock();
        let previous = self.probe.enter(Phase::Advance);
        let decision = self.session.push_chunk(chunk);
        self.probe.leave(previous, Phase::Advance, clock);
        decision
    }

    fn decision(&self) -> Decision {
        self.session.decision()
    }

    fn samples_consumed(&self) -> usize {
        self.session.samples_consumed()
    }

    fn finalize(&mut self) -> StreamClassification {
        let clock = self.clock();
        let previous = self.probe.enter(Phase::Finalize);
        let outcome = self.session.finalize();
        self.probe.leave(previous, Phase::Finalize, clock);
        if let Some(ledger) = self.probe.ledger {
            if self.probe.role == Role::Outer {
                ledger.sample_thread(false);
            }
        }
        if let Some(records) = self.probe.records {
            records.lock().expect("record list poisoned").push(Record {
                fingerprint: self.fingerprint,
                opened: self.opened,
                finalized: Instant::now(),
                outcome,
            });
        }
        outcome
    }

    fn state(&self) -> SessionState {
        self.session.state()
    }

    fn advance(&mut self, samples: &[u16]) -> SessionState {
        self.note_samples(samples);
        let clock = self.clock();
        let previous = self.probe.enter(Phase::Advance);
        let state = self.session.advance(samples);
        self.probe.leave(previous, Phase::Advance, clock);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_genome::random::random_genome;
    use sf_pore_model::KmerModel;
    use sf_sdtw::{FilterConfig, SquiggleFilter};
    use sf_shard::ShardedClassifier;

    fn reads() -> Vec<Vec<u16>> {
        (0..4u16)
            .map(|r| {
                (0..2_400u16)
                    .map(|i| 420 + (i.wrapping_mul(37 + r) % 160))
                    .collect()
            })
            .collect()
    }

    fn drive<C: ReadClassifier + ?Sized>(classifier: &C, read: &[u16]) -> StreamClassification {
        let mut session = classifier.start_read();
        for chunk in read.chunks(400) {
            if session.advance(chunk).is_final() {
                break;
            }
        }
        session.finalize()
    }

    #[test]
    fn wrapped_outcomes_equal_bare_outcomes() {
        let model = KmerModel::synthetic_r94(0);
        let filter = SquiggleFilter::from_genome(
            &model,
            &random_genome(3, 800),
            FilterConfig::hardware(1e4),
        );
        let ledger = Ledger::default();
        let records = Mutex::new(Vec::new());
        let probe = Probe::new(&filter, Role::Outer)
            .timed(&ledger)
            .recording(&records);
        for read in reads() {
            assert_eq!(drive(&probe, &read), drive(&filter, &read));
        }
        let totals = ledger.totals();
        assert_eq!(totals.sessions, 4);
        assert!(totals.busy_s() > 0.0);
        assert_eq!(totals.inner_total_s, 0.0);
        let records = records.into_inner().expect("records");
        assert_eq!(records.len(), 4);
        for (record, read) in records.iter().zip(reads()) {
            assert_eq!(record.fingerprint, fingerprint(&read));
        }
    }

    #[test]
    fn shard_time_is_booked_under_the_outer_call() {
        let model = KmerModel::synthetic_r94(0);
        let filters: Vec<SquiggleFilter> = (0..3)
            .map(|i| {
                SquiggleFilter::from_genome(
                    &model,
                    &random_genome(10 + i, 600),
                    FilterConfig::hardware(1e4),
                )
            })
            .collect();
        let bare = ShardedClassifier::new(
            filters
                .iter()
                .enumerate()
                .map(|(i, f)| (format!("t{i}"), f.clone())),
        );
        let ledger = Ledger::default();
        let shards = ShardedClassifier::new(
            filters
                .iter()
                .enumerate()
                .map(|(i, f)| (format!("t{i}"), Probe::new(f, Role::Inner).timed(&ledger))),
        );
        let outer = Probe::new(&shards, Role::Outer).timed(&ledger);
        for read in reads() {
            assert_eq!(drive(&outer, &read), drive(&bare, &read));
        }
        let totals = ledger.totals();
        // Shard time nests inside the outer calls that caused it.
        assert!(totals.inner_advance_s > 0.0);
        assert!(totals.inner_advance_s <= totals.outer_advance_s);
        assert!(totals.inner_finalize_s <= totals.outer_finalize_s);
        assert!(totals.inner_start_s <= totals.outer_start_s);
        assert!(totals.fanout_s() >= 0.0 && totals.merge_s() >= 0.0);
        let sum = totals.inner_start_s + totals.inner_advance_s + totals.inner_finalize_s;
        assert!((sum - totals.inner_total_s).abs() < 1e-9);
    }

    #[test]
    fn thread_span_idle_is_the_remainder() {
        let span = ThreadSpan {
            on_cpu_s: 2.0,
            runqueue_s: 0.5,
            wall_s: 10.0,
        };
        assert!((span.idle_s() - 7.5).abs() < 1e-12);
    }
}
