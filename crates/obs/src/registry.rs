//! Shared registry of typed instruments.
//!
//! A [`Registry`] is a cheaply-cloneable handle (`Arc` inner) to a table of
//! named [`Counter`]s, [`Gauge`]s, and histograms. Components hold the
//! handles they care about (`Arc<Counter>`, [`HistHandle`]) so the hot path
//! never takes the registry's map lock; the maps are only locked on first
//! registration and on snapshot/export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::hist::Histogram;

/// A monotonic counter. Relaxed atomics: counts are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge storing an `f64` as its bit pattern.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at 0.0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared, interior-mutable histogram instrument.
#[derive(Debug, Clone, Default)]
pub struct HistHandle(Arc<RwLock<Histogram>>);

fn read_hist(lock: &RwLock<Histogram>) -> std::sync::RwLockReadGuard<'_, Histogram> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_hist(lock: &RwLock<Histogram>) -> std::sync::RwLockWriteGuard<'_, Histogram> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl HistHandle {
    /// Creates an empty histogram instrument.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        write_hist(&self.0).record(value);
    }

    /// Merges a value-type histogram (e.g. a per-node aggregate) in.
    fn merge_from(&self, other: &Histogram) {
        write_hist(&self.0).merge(other);
    }

    /// Replaces the contents wholesale (for end-of-run publication).
    pub fn replace(&self, other: Histogram) {
        *write_hist(&self.0) = other;
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> Histogram {
        read_hist(&self.0).clone()
    }
}

/// Scoped timing guard: records elapsed wall-clock microseconds into its
/// histogram when dropped (or explicitly via [`Timer::observe`]).
#[derive(Debug)]
pub struct Timer {
    hist: Option<HistHandle>,
    start: Instant,
}

impl Timer {
    /// Starts a timer bound to `hist`.
    pub fn new(hist: HistHandle) -> Self {
        Timer {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed so far, without recording.
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Stops the timer now, records, and returns the elapsed microseconds.
    pub fn observe(mut self) -> u64 {
        let us = self.elapsed_us();
        if let Some(h) = self.hist.take() {
            h.record(us);
        }
        us
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(self.elapsed_us());
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    hists: RwLock<BTreeMap<String, HistHandle>>,
}

/// A cheaply-cloneable table of named instruments (see module docs).
///
/// Clones share the same instruments, so a network, its storage plane, and
/// a bench binary can all record into one registry and a single
/// [`Registry::snapshot`] sees everything.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

fn map_read<'a, T>(
    lock: &'a RwLock<BTreeMap<String, T>>,
) -> std::sync::RwLockReadGuard<'a, BTreeMap<String, T>> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn map_write<'a, T>(
    lock: &'a RwLock<BTreeMap<String, T>>,
) -> std::sync::RwLockWriteGuard<'a, BTreeMap<String, T>> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    /// Hold the returned `Arc` to bump it lock-free on the hot path.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = map_read(&self.inner.counters).get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            map_write(&self.inner.counters)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Registers an externally-owned counter under `name` (e.g. a counter a
    /// component created before it ever saw a registry). Later
    /// [`Registry::counter`] calls return this same instance. Replaces any
    /// previously registered counter of the same name.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        map_write(&self.inner.counters).insert(name.to_string(), counter);
    }

    /// Returns the gauge named `name`, creating it at 0.0 on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = map_read(&self.inner.gauges).get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            map_write(&self.inner.gauges)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Sets the gauge named `name` (creating it if needed).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauge(name).set(value);
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> HistHandle {
        if let Some(h) = map_read(&self.inner.hists).get(name) {
            return h.clone();
        }
        map_write(&self.inner.hists)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Merges a value-type histogram into the named instrument.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        self.histogram(name).merge_from(h);
    }

    /// Starts a [`Timer`] recording into the histogram named `name`.
    pub fn timer(&self, name: &str) -> Timer {
        Timer::new(self.histogram(name))
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: map_read(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: map_read(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: map_read(&self.inner.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders every instrument as an aligned, name-sorted text table —
    /// the human exporter (`RunReport` is the machine one).
    pub fn fmt_table(&self) -> String {
        self.snapshot().fmt_table()
    }
}

/// Point-in-time copy of a registry's instruments, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// Renders the snapshot as an aligned text table (see
    /// [`Registry::fmt_table`]).
    pub fn fmt_table(&self) -> String {
        use std::fmt::Write as _;
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max("name".len());
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:width$}  count", "counter");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "{:width$}  value", "gauge");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:width$}  {v:.3}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:width$}  {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
                "histogram (us)", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "{name:width$}  {:>8} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                    s.count, s.mean, s.p50, s.p95, s.p99, s.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_clones() {
        let reg = Registry::new();
        let also = reg.clone();
        reg.counter("a.b").add(2);
        also.counter("a.b").inc();
        assert_eq!(reg.snapshot().counters["a.b"], 3);
    }

    #[test]
    fn register_counter_adopts_external_instance() {
        let reg = Registry::new();
        let mine = Arc::new(Counter::new());
        mine.add(7);
        reg.register_counter("ext.hits", Arc::clone(&mine));
        mine.inc();
        assert_eq!(reg.counter("ext.hits").get(), 8);
        assert!(Arc::ptr_eq(&reg.counter("ext.hits"), &mine));
    }

    #[test]
    fn gauges_store_last_value() {
        let reg = Registry::new();
        reg.set_gauge("avail", 0.97);
        reg.set_gauge("avail", 0.75);
        assert_eq!(reg.snapshot().gauges["avail"], 0.75);
    }

    #[test]
    fn timer_records_on_drop_and_observe() {
        let reg = Registry::new();
        {
            let _t = reg.timer("op");
        }
        let us = reg.timer("op").observe();
        let h = reg.histogram("op").snapshot();
        assert_eq!(h.count(), 2);
        assert!(h.max() >= us);
    }

    #[test]
    fn histogram_merge_from_value_type() {
        let reg = Registry::new();
        let mut local = Histogram::new();
        local.record(5);
        local.record(9);
        reg.merge_histogram("lat", &local);
        assert_eq!(reg.histogram("lat").snapshot().count(), 2);
    }

    #[test]
    fn fmt_table_lists_everything_sorted() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.set_gauge("avail", 1.0);
        reg.histogram("lat").record(100);
        let table = reg.fmt_table();
        let a = table.find("a.first").unwrap();
        let z = table.find("z.last").unwrap();
        assert!(a < z, "counters must be name-sorted");
        assert!(table.contains("avail"));
        assert!(table.contains("p95"));
        assert!(table.contains("lat"));
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let reg = Registry::new();
        reg.counter("c").inc();
        let snap = reg.snapshot();
        reg.counter("c").add(10);
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(reg.snapshot().counters["c"], 11);
    }
}
