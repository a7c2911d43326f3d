//! Message/hop/latency accounting shared by every overlay, and the
//! replication layer's per-node storage table. The event simulator's
//! per-node message counters are its own ([`crate::sim::NodeCounters`]).

use crate::id::NodeId;
use std::collections::BTreeMap;

/// Counters accumulated by overlay operations. Every lookup/store/search
/// API returns or updates one of these so experiments can report the same
/// quantities DOSN papers do: messages, hops, and simulated latency — the
/// latter both as a critical-path accumulator ([`Metrics::latency_ms`])
/// and as a mergeable distribution ([`Metrics::latency`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes attributed to messages (approximate payload accounting).
    pub bytes: u64,
    /// Per-message-type counts.
    pub by_type: BTreeMap<String, u64>,
    /// Simulated wall-clock accumulated along the *critical path*, ms.
    /// Meaningful within one sequential operation; across bundles use
    /// [`Metrics::latency`], which merges correctly.
    pub latency_ms: u64,
    /// Distribution of every latency contribution recorded into this
    /// bundle (`dosn-obs` bucket histogram): p50/p95/p99 survive
    /// [`Metrics::merge`], and [`dosn_obs::Histogram::sum`] is the total
    /// across sequential phases.
    pub latency: dosn_obs::Histogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind` with `bytes` payload and `latency_ms`
    /// on the critical path.
    pub fn record(&mut self, kind: &str, bytes: u64, latency_ms: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.add_latency(latency_ms);
        self.bump(kind, 1);
    }

    /// Records a message that is *not* on the critical path (parallel fan-out
    /// such as flooding): counts it without adding latency.
    pub fn record_offpath(&mut self, kind: &str, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.bump(kind, 1);
    }

    /// Adds `latency_ms` of critical-path latency without attributing a
    /// message (e.g. a wait already counted elsewhere). Feeds both the
    /// scalar accumulator and the distribution.
    pub fn add_latency(&mut self, latency_ms: u64) {
        self.latency_ms += latency_ms;
        self.latency.record(latency_ms);
    }

    /// Merges another metrics bundle into this one. Counts and bytes add;
    /// the latency *distribution* merges (quantiles of the union); the
    /// critical-path scalar takes the max, modelling parallel branches.
    ///
    /// This replaces the old behaviour of summing `latency_ms`, which made
    /// a merge of two nodes' bundles report a latency no request ever
    /// experienced. For a sequential total across merged bundles, read
    /// `latency.sum()`.
    pub fn merge(&mut self, other: &Metrics) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.latency_ms = self.latency_ms.max(other.latency_ms);
        self.latency.merge(&other.latency);
        for (k, v) in &other.by_type {
            self.bump(k, *v);
        }
    }

    /// Count for one message type.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_type.get(kind).copied().unwrap_or(0)
    }

    /// Increments a named counter by `n` without attributing a message —
    /// layer-level accounting (quorum sizes, replica writes, read repairs)
    /// that should not inflate the overlay's message totals.
    pub fn bump(&mut self, kind: &str, n: u64) {
        // Present after its first sighting: probe before allocating a key.
        if let Some(count) = self.by_type.get_mut(kind) {
            *count += n;
        } else {
            self.by_type.insert(kind.to_owned(), n);
        }
    }
}

/// Bytes of replica payload stored per node, maintained by the replication
/// layer so replication-factor experiments can report *storage* overhead
/// (R× the logical data, and how evenly it spreads) and not just message
/// counts.
#[derive(Debug, Clone, Default)]
pub struct StorageAccounting {
    bytes: BTreeMap<u64, u64>,
}

impl StorageAccounting {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of replica payload written onto `node`.
    pub fn add(&mut self, node: NodeId, bytes: u64) {
        *self.bytes.entry(node.0).or_insert(0) += bytes;
    }

    /// Bytes stored on one node (0 if it holds nothing).
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.bytes.get(&node.0).copied().unwrap_or(0)
    }

    /// Total replica bytes across every node.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Number of nodes holding at least one replica byte.
    pub fn nodes_used(&self) -> usize {
        self.bytes.values().filter(|&&b| b > 0).count()
    }

    /// Iterates `(node, bytes)` in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.bytes.iter().map(|(&id, &b)| (NodeId(id), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Metrics::new();
        m.record("lookup", 100, 20);
        m.record("lookup", 100, 20);
        m.record_offpath("flood", 50);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 250);
        assert_eq!(m.latency_ms, 40);
        assert_eq!(m.count("lookup"), 2);
        assert_eq!(m.count("flood"), 1);
        assert_eq!(m.count("absent"), 0);
    }

    #[test]
    fn merge_adds_counts_and_takes_critical_path_max() {
        let mut a = Metrics::new();
        a.record("x", 1, 2);
        let mut b = Metrics::new();
        b.record("x", 10, 20);
        b.record("y", 5, 1);
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 16);
        // Critical path: the slower branch (20 + 1 sequential in b).
        assert_eq!(a.latency_ms, 21);
        // Sequential total across both bundles survives in the histogram.
        assert_eq!(a.latency.sum(), 23);
        assert_eq!(a.latency.count(), 3);
        assert_eq!(a.count("x"), 2);
    }

    // Regression for the old `merge` that summed `latency_ms`: merging two
    // nodes' bundles must yield a median between the inputs' medians, not a
    // sum no request ever experienced.
    #[test]
    fn merged_p50_lies_between_input_p50s() {
        let mut a = Metrics::new();
        for l in [10u64, 12, 14, 16] {
            a.record("lookup", 100, l);
        }
        let mut b = Metrics::new();
        for l in [40u64, 44, 48, 52] {
            b.record("lookup", 100, l);
        }
        let (p_a, p_b) = (a.latency.p50(), b.latency.p50());
        let mut merged = a.clone();
        merged.merge(&b);
        let p_m = merged.latency.p50();
        assert!(
            p_a.min(p_b) <= p_m && p_m <= p_a.max(p_b),
            "merged p50 {p_m} outside [{}, {}]",
            p_a.min(p_b),
            p_a.max(p_b)
        );
        // The old bug would have reported the sum on the scalar too.
        assert!(merged.latency_ms < a.latency_ms + b.latency_ms);
    }

    #[test]
    fn add_latency_feeds_scalar_and_distribution() {
        let mut m = Metrics::new();
        m.add_latency(7);
        m.add_latency(9);
        assert_eq!(m.latency_ms, 16);
        assert_eq!(m.latency.count(), 2);
        assert_eq!(m.latency.sum(), 16);
        assert_eq!(m.messages, 0, "add_latency must not count a message");
    }

    #[test]
    fn bump_counts_without_messages() {
        let mut m = Metrics::new();
        m.bump("get.repairs", 2);
        m.bump("get.repairs", 1);
        assert_eq!(m.count("get.repairs"), 3);
        assert_eq!(m.messages, 0);
        assert_eq!(m.bytes, 0);
    }

    #[test]
    fn storage_accounting_totals() {
        let mut a = StorageAccounting::new();
        assert_eq!(a.total_bytes(), 0);
        a.add(NodeId(1), 100);
        a.add(NodeId(1), 50);
        a.add(NodeId(2), 20);
        assert_eq!(a.bytes_on(NodeId(1)), 150);
        assert_eq!(a.bytes_on(NodeId(9)), 0);
        assert_eq!(a.total_bytes(), 170);
        assert_eq!(a.nodes_used(), 2);
        assert_eq!(a.iter().count(), 2);
    }
}
