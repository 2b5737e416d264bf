//! The process-wide metric registry.
//!
//! Metrics are registered once by name (cold path, takes a lock) and
//! returned as `&'static` handles; hot paths hold the handle and never
//! look names up again. [`snapshot`] copies every registered metric into an
//! immutable [`Snapshot`] for export or delta arithmetic.
//!
//! # Naming
//!
//! Names are `subsystem.metric` in `snake_case` after the dot:
//! `sdtw.chunk_push_ns`, `sched.chunk_queue_wait_ns`, `flowcell.ejects`.
//! Durations are counters/histograms of nanoseconds suffixed `_ns`.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};

#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};

#[cfg(feature = "enabled")]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

#[cfg(feature = "enabled")]
fn entries() -> &'static Mutex<Vec<(&'static str, Handle)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, Handle)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(feature = "enabled")]
fn register<T>(
    name: &'static str,
    make: impl FnOnce() -> T,
    wrap: impl Fn(&'static T) -> Handle,
    unwrap: impl Fn(&Handle) -> Option<&'static T>,
) -> &'static T {
    // sf-lint: allow(panic) -- poisoned only if a registration panicked mid-insert
    let mut entries = entries().lock().expect("telemetry registry");
    if let Some((_, handle)) = entries.iter().find(|(n, _)| *n == name) {
        return unwrap(handle)
            // sf-lint: allow(panic) -- kind mismatch is a programming error worth failing fast on
            .unwrap_or_else(|| panic!("telemetry metric {name:?} re-registered as another kind"));
    }
    let metric: &'static T = Box::leak(Box::new(make()));
    entries.push((name, wrap(metric)));
    metric
}

/// Registers (or retrieves) the counter called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn register_counter(name: &'static str) -> &'static Counter {
    #[cfg(feature = "enabled")]
    {
        register(name, Counter::new, Handle::Counter, |h| match h {
            Handle::Counter(c) => Some(c),
            _ => None,
        })
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        static NOOP: Counter = Counter::new();
        &NOOP
    }
}

/// Registers (or retrieves) the gauge called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn register_gauge(name: &'static str) -> &'static Gauge {
    #[cfg(feature = "enabled")]
    {
        register(name, Gauge::new, Handle::Gauge, |h| match h {
            Handle::Gauge(g) => Some(g),
            _ => None,
        })
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        static NOOP: Gauge = Gauge::new();
        &NOOP
    }
}

/// Registers (or retrieves) the histogram called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn register_histogram(name: &'static str) -> &'static Histogram {
    #[cfg(feature = "enabled")]
    {
        register(name, Histogram::new, Handle::Histogram, |h| match h {
            Handle::Histogram(m) => Some(m),
            _ => None,
        })
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        static NOOP: Histogram = Histogram::new_noop();
        &NOOP
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter's current count.
    Counter(u64),
    /// A gauge's last stored value.
    Gauge(u64),
    /// A histogram's full bucket state.
    Histogram(HistogramSnapshot),
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The registered metric name.
    pub name: String,
    /// Its value when the snapshot was taken.
    pub value: MetricValue,
}

/// An immutable copy of every registered metric, sorted by name.
///
/// Each metric is read atomically but the snapshot as a whole is not a
/// consistent cut: recorders running concurrently may land between reads.
/// For benchmark accounting take snapshots at quiescent points and work
/// with deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `false` when the crate was built without the `enabled` feature (the
    /// metric list is then always empty).
    pub enabled: bool,
    /// All registered metrics, sorted by name.
    pub metrics: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The current count of the counter called `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// The last value of the gauge called `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|e| match &e.value {
            MetricValue::Gauge(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// The state of the histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|e| match &e.value {
            MetricValue::Histogram(h) if e.name == name => Some(h),
            _ => None,
        })
    }

    /// `counter(name)` at this snapshot minus the same counter at an
    /// `earlier` snapshot — the standard idiom for attributing work to a
    /// benchmark region. Missing counters read as zero.
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.counter(name).unwrap_or(0))
    }
}

/// Snapshots every registered metric. Cold path: takes the registry lock.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        // sf-lint: allow(panic) -- poisoned only if a registration panicked mid-insert
        let entries = entries().lock().expect("telemetry registry");
        let mut metrics: Vec<SnapshotEntry> = entries
            .iter()
            .map(|(name, handle)| SnapshotEntry {
                name: (*name).to_string(),
                value: match handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(entries);
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            enabled: true,
            metrics,
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        Snapshot {
            enabled: false,
            metrics: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = register_counter("test.registry.idempotent");
        let b = register_counter("test.registry.idempotent");
        assert!(std::ptr::eq(a, b));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn snapshot_sees_registered_metrics() {
        let c = register_counter("test.registry.snapshot_counter");
        c.add(5);
        let g = register_gauge("test.registry.snapshot_gauge");
        g.set(9);
        let snap = snapshot();
        assert!(snap.enabled);
        assert!(snap.counter("test.registry.snapshot_counter").unwrap() >= 5);
        assert_eq!(snap.gauge("test.registry.snapshot_gauge"), Some(9));
        assert_eq!(snap.counter("test.registry.missing"), None);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_snapshot_is_empty() {
        register_counter("test.registry.disabled").add(5);
        let snap = snapshot();
        assert!(!snap.enabled);
        assert!(snap.metrics.is_empty());
    }
}
