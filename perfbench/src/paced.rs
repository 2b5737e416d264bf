//! The open-loop driver: plays a trace's chunks into `SessionScheduler::run`
//! at wall-clock pace, as a flow cell would deliver them.
//!
//! Each chunk is sent at its due time (capture + delivered samples / 4 kHz),
//! whatever the scheduler is doing. While waiting for the next due time the
//! driver blocks on the completion channel, so an outcome is received the
//! moment it is emitted and never held while the driver sleeps. Once a
//! read's outcome is in, its remaining chunks are not sent: an ejected pore
//! delivers nothing more, and a kept read needs no further decisions.

use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::thread;
use std::time::{Duration, Instant};

use sf_sched::{
    Arrival, MicroBatchConfig, SchedulerReport, SessionId, SessionOutcome, SessionScheduler,
};
use sf_sdtw::{ReadClassifier, StreamClassification};
use sf_sim::ArrivalTrace;

use crate::probe::{ThreadSpan, ThreadTimes};

/// Ingest queue depth between the driver and the scheduler (the service
/// loop's default).
const INGEST_DEPTH: usize = 1_024;
/// Head start between spawning the scheduler and the first due time.
const LEAD: Duration = Duration::from_millis(20);

/// One read's outcome as the driver received it.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    /// The classification.
    pub outcome: StreamClassification,
    /// Seconds after the trace origin at which it was received.
    pub at_s: f64,
    /// Its last chunk had already been sent when it arrived.
    pub after_last_chunk: bool,
}

/// What one paced replay observed.
#[derive(Debug)]
pub struct PacedRun {
    /// Per read, the first outcome received.
    pub received: Vec<Option<Received>>,
    /// Outcomes received for a read that already had one.
    pub duplicates: usize,
    /// Per sent chunk, milliseconds between its due time and its send.
    pub lag_ms: Vec<f64>,
    /// Chunks sent to the scheduler.
    pub chunks_sent: u64,
    /// Chunks not sent because their read was already decided.
    pub chunks_skipped: u64,
    /// Sends that found the ingest queue full.
    pub stalls: u64,
    /// Time the driver spent blocked on full-queue sends.
    pub blocked_s: f64,
    /// The scheduler's own report.
    pub scheduler: SchedulerReport,
    /// The scheduler thread's accounting over `run`.
    pub thread: ThreadSpan,
    /// Seconds from the trace origin to the last outcome.
    pub wall_s: f64,
}

/// Replays `trace` through a one-worker scheduler running `classifier`.
pub fn run<C: ReadClassifier + Sync + ?Sized>(classifier: &C, trace: &ArrivalTrace) -> PacedRun {
    let scheduler = SessionScheduler::new(MicroBatchConfig::default().with_workers(1));
    let (ingest_tx, ingest_rx) = mpsc::sync_channel::<Arrival>(INGEST_DEPTH);
    let (done_tx, done_rx) = mpsc::channel::<SessionOutcome>();
    let reads = trace.reads.len();
    let mut state = Driver {
        received: vec![None; reads],
        sent_last: vec![false; reads],
        duplicates: 0,
        origin: Instant::now() + LEAD,
    };
    let mut lag_ms = Vec::with_capacity(trace.chunks.len());
    let (mut chunks_sent, mut chunks_skipped, mut stalls) = (0u64, 0u64, 0u64);
    let mut blocked = Duration::ZERO;

    let (scheduler_report, thread_span) = thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let before = ThreadTimes::now();
            let report = scheduler.run(&classifier, ingest_rx, &done_tx);
            let span = ThreadTimes::now().since(&before);
            drop(done_tx);
            (report, span)
        });
        for chunk in &trace.chunks {
            let due = state.origin + Duration::from_secs_f64(chunk.time_s);
            state.wait_until(due, &done_rx);
            if state.received[chunk.read].is_some() {
                chunks_skipped += 1;
                continue;
            }
            let id = SessionId(chunk.read as u64);
            let mut arrivals = vec![Arrival::chunk(id, trace.samples(chunk).to_vec())];
            if chunk.last {
                arrivals.push(Arrival::end(id));
            }
            lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            for arrival in arrivals {
                if let Err(TrySendError::Full(back)) = ingest_tx.try_send(arrival) {
                    stalls += 1;
                    let started = Instant::now();
                    let _ = ingest_tx.send(back);
                    blocked += started.elapsed();
                }
            }
            chunks_sent += 1;
            state.sent_last[chunk.read] = chunk.last;
        }
        drop(ingest_tx);
        for outcome in done_rx.iter() {
            state.absorb(outcome);
        }
        worker.join().expect("scheduler thread panicked")
    });

    let wall_s = state
        .received
        .iter()
        .flatten()
        .map(|r| r.at_s)
        .fold(0.0, f64::max);
    PacedRun {
        received: state.received,
        duplicates: state.duplicates,
        lag_ms,
        chunks_sent,
        chunks_skipped,
        stalls,
        blocked_s: blocked.as_secs_f64(),
        scheduler: scheduler_report,
        thread: thread_span,
        wall_s,
    }
}

/// The driver's per-read bookkeeping.
struct Driver {
    received: Vec<Option<Received>>,
    sent_last: Vec<bool>,
    duplicates: usize,
    origin: Instant,
}

impl Driver {
    /// Blocks on the completion channel until `due`, absorbing outcomes as
    /// they arrive, then absorbs whatever else is already waiting.
    fn wait_until(&mut self, due: Instant, done: &mpsc::Receiver<SessionOutcome>) {
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            match done.recv_timeout(due - now) {
                Ok(outcome) => self.absorb(outcome),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    thread::sleep(due.saturating_duration_since(Instant::now()));
                    break;
                }
            }
        }
        while let Ok(outcome) = done.try_recv() {
            self.absorb(outcome);
        }
    }

    fn absorb(&mut self, outcome: SessionOutcome) {
        let at_s = Instant::now()
            .saturating_duration_since(self.origin)
            .as_secs_f64();
        let read = outcome.id.0 as usize;
        match self.received.get_mut(read) {
            Some(slot @ None) => {
                *slot = Some(Received {
                    outcome: outcome.classification,
                    at_s,
                    after_last_chunk: self.sent_last[read],
                })
            }
            _ => self.duplicates += 1,
        }
    }
}
