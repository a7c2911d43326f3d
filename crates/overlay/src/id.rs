//! Node and key identifiers on the 64-bit ring.

use std::fmt;

/// A node's position in the overlay (also its index into simulator tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A content key hashed onto the 64-bit identifier ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

impl Key {
    /// Hashes arbitrary bytes to a ring position (a deterministic FNV-1a
    /// variant with a final avalanche mix; stable across processes, unlike
    /// `std`'s `DefaultHasher`). Every stored key derives from it, so its
    /// values are pinned.
    ///
    /// The finalizer matters: raw FNV-1a leaves trailing-byte differences in
    /// the low ~48 bits, so sequential content names ("post-1", "post-2", …)
    /// would cluster in one ring arc and defeat DHT load balancing — the
    /// churn experiment (E10) exposed exactly that failure.
    pub fn hash(data: &[u8]) -> Key {
        Key(fmix64(fnv1a(data)))
    }
}

/// FNV-1a's xor-then-multiply loop with the standard 64-bit offset basis
/// but multiplier `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3`
/// (no finalization; see [`Key::hash`]). Every key in the workspace is
/// derived through it, so the constant stays.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// MurmurHash3 64-bit finalizer: full avalanche over all input bits.
pub(crate) fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Ring distance from `a` to `b` travelling clockwise.
pub fn ring_distance(a: u64, b: u64) -> u64 {
    b.wrapping_sub(a)
}

/// Whether `x` lies in the clockwise-open interval `(a, b]` on the ring.
pub fn in_interval_open_closed(x: u64, a: u64, b: u64) -> bool {
    if a == b {
        // Whole ring.
        return true;
    }
    ring_distance(a, x) <= ring_distance(a, b) && x != a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(Key::hash(b"alice"), Key::hash(b"alice"));
        assert_ne!(Key::hash(b"alice"), Key::hash(b"bob"));
        assert_ne!(Key::hash(b""), Key::hash(b"\0"));
    }

    #[test]
    fn hash_values_are_pinned() {
        // Every wall key is `Key::hash` of its name, and stored data is
        // addressed by it: these must never move.
        assert_eq!(Key::hash(b""), Key(0xefd0_1f60_ba99_2926));
        assert_eq!(Key::hash(b"alice"), Key(0xa340_160d_74e3_1aa8));
        assert_eq!(Key::hash(b"wall/alice/3"), Key(0x30e0_01aa_9cbf_441e));
    }

    #[test]
    fn sequential_names_spread_across_the_ring() {
        // Regression for the E10 finding: "item-N" names must not cluster.
        // Partition the ring into 8 arcs; 64 sequential keys should touch
        // most arcs.
        let mut arcs = [0u32; 8];
        for i in 0..64 {
            let k = Key::hash(format!("item-{i}").as_bytes());
            arcs[(k.0 >> 61) as usize] += 1;
        }
        let occupied = arcs.iter().filter(|&&c| c > 0).count();
        assert!(occupied >= 6, "keys cluster: arc histogram {arcs:?}");
        let max = arcs.iter().max().unwrap();
        assert!(*max <= 24, "one arc dominates: {arcs:?}");
    }

    #[test]
    fn ring_distance_wraps() {
        assert_eq!(ring_distance(10, 15), 5);
        assert_eq!(ring_distance(15, 10), u64::MAX - 4);
        assert_eq!(ring_distance(7, 7), 0);
    }

    #[test]
    fn interval_membership() {
        // Non-wrapping interval (10, 20].
        assert!(in_interval_open_closed(15, 10, 20));
        assert!(in_interval_open_closed(20, 10, 20));
        assert!(!in_interval_open_closed(10, 10, 20));
        assert!(!in_interval_open_closed(25, 10, 20));
        // Wrapping interval (u64::MAX - 5, 5].
        let a = u64::MAX - 5;
        assert!(in_interval_open_closed(u64::MAX, a, 5));
        assert!(in_interval_open_closed(0, a, 5));
        assert!(in_interval_open_closed(5, a, 5));
        assert!(!in_interval_open_closed(6, a, 5));
        // Degenerate a == b covers the whole ring except a itself is
        // included by convention (whole ring).
        assert!(in_interval_open_closed(1, 3, 3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert!(Key(0xff).to_string().starts_with("k"));
    }
}
