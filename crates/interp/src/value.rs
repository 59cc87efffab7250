//! Runtime values for the Lucid interpreter.

use std::fmt;

/// Where an event is destined to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The switch that generates it (the default): the event recirculates.
    Here,
    /// A specific switch.
    Switch(u64),
    /// Every member of a multicast group.
    Group(Vec<u64>),
}

/// An event value: the four-tuple of §3.1 — name (by id), data, time
/// (as a relative delay until generated), and place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventVal {
    /// Index into [`ProgramInfo::events`](lucid_check::ProgramInfo).
    pub event_id: usize,
    /// Shared, not owned: event values are constructed on the hot path,
    /// and an `Arc<str>` clone is a refcount bump instead of a heap
    /// allocation per `generate`.
    pub name: std::sync::Arc<str>,
    /// Carried data, already masked to each parameter's width.
    pub args: Vec<u64>,
    /// Extra delay accumulated from `Event.delay`, in nanoseconds.
    pub delay_ns: u64,
    pub location: Location,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A fixed-width unsigned integer.
    Int {
        v: u64,
        width: u32,
    },
    Bool(bool),
    Event(EventVal),
    Group(Vec<u64>),
    /// Result of `Array.set` and void function calls.
    Void,
}

impl Value {
    pub fn int(v: u64, width: u32) -> Value {
        Value::Int {
            v: lucid_check::mask(v, width),
            width,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int { v, .. } => Some(*v),
            Value::Bool(b) => Some(*b as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int { v, .. } => Some(*v != 0),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int { v, .. } => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Event(e) => {
                let args: Vec<String> = e.args.iter().map(ToString::to_string).collect();
                write!(f, "{}({})", e.name, args.join(", "))
            }
            Value::Group(g) => write!(
                f,
                "{{{}}}",
                g.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Value::Void => write!(f, "()"),
        }
    }
}

/// 64-bit FNV-1a: the one hash behind the state digest, the metrics
/// digest and the snapshot fingerprints. Digests are pinned across
/// versions (scenario expect blocks, the benchmark's expected digests,
/// snapshot files), so the byte order fed to it is part of the format.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mix `x` as its eight little-endian bytes.
    pub(crate) fn u64(&mut self, x: u64) {
        self.bytes(x.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of one byte stream.
    pub(crate) fn of(bytes: impl IntoIterator<Item = u8>) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(bytes);
        h.finish()
    }
}

/// The deterministic hash used by `hash<<w>>(seed, args..)` in both the
/// interpreter and the Tofino model: a 64-bit FNV-1a-style mix, truncated.
/// Determinism matters — the same program must behave identically in the
/// interpreter and in simulation-backed benches.
pub fn lucid_hash(width: u32, seed: u64, args: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &a in args {
        for i in 0..8 {
            let byte = (a >> (8 * i)) & 0xff;
            h ^= byte;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    // Final avalanche so low-entropy inputs spread over narrow widths.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    lucid_check::mask(h, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_masks_on_construction() {
        assert_eq!(Value::int(0x1ff, 8), Value::Int { v: 0xff, width: 8 });
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let a = lucid_hash(16, 1, &[10, 20]);
        let b = lucid_hash(16, 1, &[10, 20]);
        let c = lucid_hash(16, 2, &[10, 20]);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different hashes");
        assert!(a < (1 << 16));
    }

    #[test]
    fn hash_distributes_over_narrow_width() {
        // All 256 single-byte inputs through an 8-bit hash should hit a
        // reasonable number of distinct buckets.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            seen.insert(lucid_hash(8, 0, &[i]));
        }
        assert!(seen.len() > 140, "only {} distinct buckets", seen.len());
    }

    #[test]
    fn as_int_accepts_bools() {
        assert_eq!(Value::Bool(true).as_int(), Some(1));
    }
}
