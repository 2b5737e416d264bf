//! The unpaced capacity run: the trace replayed through
//! `sf_readuntil::run_service` as fast as the bounded ingest queue lets it,
//! repeated until the measurement time is used up.
//!
//! `run_service` does not expose per-read outcomes, so the classifier is
//! wrapped in a recording [`Probe`]: every finalized session leaves its
//! outcome, its open/finalize instants and a fingerprint of its first
//! samples, which identifies the read it belonged to.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use sf_readuntil::{run_service, ServiceConfig, ServiceReport};
use sf_sdtw::ReadClassifier;
use sf_sim::ArrivalTrace;

use crate::probe::{fingerprint, Record};

/// What the capacity replays observed.
#[derive(Debug)]
pub struct CapacityRun {
    /// One service report per replay.
    pub reports: Vec<ServiceReport>,
    /// Per replay, the recorded sessions matched to reads: `Some(records)`
    /// for each read (usually one record), unmatched records separately.
    pub replays: Vec<Matched>,
    /// Wall-clock seconds of all replays.
    pub wall_s: f64,
}

/// One replay's recorded sessions, assigned to reads by fingerprint.
#[derive(Debug)]
pub struct Matched {
    /// Per read, the records whose fingerprint identified it.
    pub per_read: Vec<Vec<Record>>,
    /// Records no read's fingerprint matched.
    pub unmatched: usize,
}

/// Replays `trace` through `run_service` with the default
/// [`ServiceConfig`] as many times as fit in `seconds` (at least once).
/// `classifier` must record into `records`.
pub fn run<C: ReadClassifier + Sync>(
    classifier: &C,
    records: &Mutex<Vec<Record>>,
    trace: &ArrivalTrace,
    seconds: f64,
) -> CapacityRun {
    let index = fingerprint_index(trace);
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut replays = Vec::new();
    loop {
        let report = run_service(classifier, trace, &ServiceConfig::default());
        let replay_s = report.wall_s;
        reports.push(report);
        let recorded = std::mem::take(&mut *records.lock().expect("record list poisoned"));
        replays.push(assign(&index, trace.reads.len(), recorded));
        if started.elapsed().as_secs_f64() + replay_s > seconds {
            break;
        }
    }
    CapacityRun {
        wall_s: reports.iter().map(|r| r.wall_s).sum(),
        reports,
        replays,
    }
}

/// Fingerprint → read index. Reads whose fingerprint collides with another
/// read's are left out, so their records count as unmatched.
fn fingerprint_index(trace: &ArrivalTrace) -> HashMap<u64, usize> {
    let mut index: HashMap<u64, Option<usize>> = HashMap::new();
    for (i, read) in trace.reads.iter().enumerate() {
        if let Some(fp) = fingerprint(&read.squiggle.samples()[..read.available_samples()]) {
            index
                .entry(fp)
                .and_modify(|slot| *slot = None)
                .or_insert(Some(i));
        }
    }
    index
        .into_iter()
        .filter_map(|(fp, read)| read.map(|r| (fp, r)))
        .collect()
}

fn assign(index: &HashMap<u64, usize>, reads: usize, records: Vec<Record>) -> Matched {
    let mut per_read = vec![Vec::new(); reads];
    let mut unmatched = 0;
    for record in records {
        match record.fingerprint.and_then(|fp| index.get(&fp)) {
            Some(&read) => per_read[read].push(record),
            None => unmatched += 1,
        }
    }
    Matched {
        per_read,
        unmatched,
    }
}
