//! Per-set replacement policies.
//!
//! A [`ReplacementState`] is both the live policy of one set and its
//! checkpoint image. The cache informs it of hits and fills; invalid ways
//! are always filled before a victim is chosen, so
//! [`ReplacementState::victim`] may assume a full set.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which replacement policy a cache should use.
///
/// # Example
///
/// ```
/// use cnt_sim::{ReplacementKind, ReplacementState};
///
/// let mut lru = ReplacementState::new(ReplacementKind::Lru, 4, 0);
/// for way in 0..4 {
///     lru.on_fill(way);
/// }
/// lru.on_hit(0); // way 0 becomes most recent
/// assert_eq!(lru.victim(4), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementKind {
    /// Least-recently-used (true LRU stack).
    #[default]
    Lru,
    /// First-in first-out by fill order.
    Fifo,
    /// Uniform random victim selection with a deterministic seed.
    Random {
        /// RNG seed; per-set streams are derived from it.
        seed: u64,
    },
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
    /// Static re-reference interval prediction with 2-bit RRPV.
    Srrip,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("LRU"),
            ReplacementKind::Fifo => f.write_str("FIFO"),
            ReplacementKind::Random { .. } => f.write_str("random"),
            ReplacementKind::TreePlru => f.write_str("tree-PLRU"),
            ReplacementKind::Srrip => f.write_str("SRRIP"),
        }
    }
}

/// The replacement state of one set: the live policy, and (serialized)
/// its checkpoint image. A restored state continues the exact victim
/// sequence of the captured one, including the random policy, whose raw
/// xoshiro state words are carried.
///
/// Methods taking a `way` may assume `way < ways`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementState {
    /// LRU recency stack, least-recent first.
    Lru {
        /// Permutation of `0..ways`, front = least recent.
        order: Vec<usize>,
    },
    /// FIFO fill order, oldest first.
    Fifo {
        /// Permutation of `0..ways`, front = oldest fill.
        queue: Vec<usize>,
    },
    /// Random policy generator state.
    Random {
        /// Raw xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// Tree-PLRU direction bits in heap order.
    TreePlru {
        /// `ways - 1` bits; `false` points left.
        bits: Vec<bool>,
    },
    /// SRRIP re-reference prediction values.
    Srrip {
        /// One 2-bit RRPV per way.
        rrpv: Vec<u8>,
    },
}

const RRPV_MAX: u8 = 3; // 2-bit counters
const RRPV_LONG: u8 = RRPV_MAX - 1;

impl ReplacementState {
    /// The initial state of set `set_index` in a cache with `ways` ways.
    /// The random policy derives a distinct stream per set from its seed,
    /// so every set does not evict the same way sequence.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, or if [`ReplacementKind::TreePlru`] is
    /// requested with a non-power-of-two way count.
    pub fn new(kind: ReplacementKind, ways: usize, set_index: u64) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        match kind {
            ReplacementKind::Lru => ReplacementState::Lru {
                order: (0..ways).collect(),
            },
            ReplacementKind::Fifo => ReplacementState::Fifo {
                queue: (0..ways).collect(),
            },
            ReplacementKind::Random { seed } => ReplacementState::Random {
                rng: SmallRng::seed_from_u64(seed ^ set_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .state(),
            },
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two associativity, got {ways}"
                );
                ReplacementState::TreePlru {
                    bits: vec![false; ways - 1],
                }
            }
            ReplacementKind::Srrip => ReplacementState::Srrip {
                rrpv: vec![RRPV_MAX; ways],
            },
        }
    }

    /// The policy kind this state belongs to, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ReplacementState::Lru { .. } => "LRU",
            ReplacementState::Fifo { .. } => "FIFO",
            ReplacementState::Random { .. } => "random",
            ReplacementState::TreePlru { .. } => "tree-PLRU",
            ReplacementState::Srrip { .. } => "SRRIP",
        }
    }

    /// Called when `way` hits. FIFO and random ignore hits.
    pub fn on_hit(&mut self, way: usize) {
        match self {
            ReplacementState::Lru { order } => move_to_back(order, way),
            ReplacementState::TreePlru { bits } => plru_touch(bits, way),
            ReplacementState::Srrip { rrpv } => rrpv[way] = 0,
            ReplacementState::Fifo { .. } | ReplacementState::Random { .. } => {}
        }
    }

    /// Called when a line is (re-)filled into `way`.
    pub fn on_fill(&mut self, way: usize) {
        match self {
            ReplacementState::Lru { order } | ReplacementState::Fifo { queue: order } => {
                move_to_back(order, way);
            }
            ReplacementState::TreePlru { bits } => plru_touch(bits, way),
            ReplacementState::Srrip { rrpv } => rrpv[way] = RRPV_LONG,
            ReplacementState::Random { .. } => {}
        }
    }

    /// Picks the way to evict from a full set of `ways` ways.
    pub fn victim(&mut self, ways: usize) -> usize {
        match self {
            ReplacementState::Lru { order } | ReplacementState::Fifo { queue: order } => order[0],
            ReplacementState::Random { rng } => {
                let mut stream = SmallRng::from_state(*rng);
                let way = stream.gen_range(0..ways);
                *rng = stream.state();
                way
            }
            ReplacementState::TreePlru { bits } => {
                let (mut node, mut lo, mut hi) = (0, 0, ways);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if bits[node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementState::Srrip { rrpv } => loop {
                if let Some(way) = rrpv.iter().position(|&v| v == RRPV_MAX) {
                    return way;
                }
                for v in rrpv.iter_mut() {
                    *v += 1;
                }
            },
        }
    }

    /// Checks that this state (e.g. read from a checkpoint) is a valid
    /// `kind` state for a set of `ways` ways: the same policy, the right
    /// length, LRU/FIFO orders that are permutations, and RRPVs that fit
    /// in two bits.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check(&self, kind: ReplacementKind, ways: usize) -> Result<(), String> {
        match (kind, self) {
            (ReplacementKind::Lru, ReplacementState::Lru { order }) => {
                check_permutation("LRU order", ways, order)
            }
            (ReplacementKind::Fifo, ReplacementState::Fifo { queue }) => {
                check_permutation("FIFO queue", ways, queue)
            }
            (ReplacementKind::Random { .. }, ReplacementState::Random { .. }) => Ok(()),
            (ReplacementKind::TreePlru, ReplacementState::TreePlru { bits }) => {
                check_len("tree-PLRU bits", ways - 1, bits.len())
            }
            (ReplacementKind::Srrip, ReplacementState::Srrip { rrpv }) => {
                check_len("SRRIP rrpv", ways, rrpv.len())?;
                match rrpv.iter().find(|&&v| v > RRPV_MAX) {
                    Some(v) => Err(format!("SRRIP rrpv value {v} exceeds max {RRPV_MAX}")),
                    None => Ok(()),
                }
            }
            (kind, state) => Err(format!(
                "policy is {kind}, snapshot is {}",
                state.kind_name()
            )),
        }
    }
}

/// Moves `way` to the back of a recency or fill order.
fn move_to_back(order: &mut [usize], way: usize) {
    let pos = order
        .iter()
        .position(|&w| w == way)
        .expect("way must be tracked");
    order[pos..].rotate_left(1);
}

/// Points the tree-PLRU bits on `way`'s root path away from it.
fn plru_touch(bits: &mut [bool], way: usize) {
    let (mut node, mut lo, mut hi) = (0, 0, bits.len() + 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        // Left half: point the bit right (away), and vice versa.
        bits[node] = way < mid;
        if way < mid {
            node = 2 * node + 1;
            hi = mid;
        } else {
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

fn check_len(what: &'static str, expected: usize, got: usize) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected} entries, got {got}"))
    }
}

fn check_permutation(what: &'static str, ways: usize, order: &[usize]) -> Result<(), String> {
    check_len(what, ways, order.len())?;
    let mut seen = vec![false; ways];
    for &w in order {
        if w >= ways || seen[w] {
            return Err(format!("{what}: not a permutation of 0..{ways}"));
        }
        seen[w] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(kind: ReplacementKind, ways: usize) -> ReplacementState {
        let mut p = ReplacementState::new(kind, ways, 0);
        for w in 0..ways {
            p.on_fill(w);
        }
        p
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = filled(ReplacementKind::Lru, 4);
        assert_eq!(p.victim(4), 0);
        p.on_hit(0);
        assert_eq!(p.victim(4), 1);
        p.on_hit(1);
        p.on_hit(2);
        p.on_hit(3);
        assert_eq!(p.victim(4), 0);
    }

    #[test]
    fn lru_refill_refreshes() {
        let mut p = filled(ReplacementKind::Lru, 2);
        p.on_fill(0);
        assert_eq!(p.victim(2), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = filled(ReplacementKind::Fifo, 4);
        p.on_hit(0);
        p.on_hit(0);
        assert_eq!(p.victim(4), 0, "hits must not refresh FIFO order");
        p.on_fill(0); // re-filling moves way 0 to the back
        assert_eq!(p.victim(4), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = filled(ReplacementKind::Random { seed: 42 }, 8);
        let mut b = filled(ReplacementKind::Random { seed: 42 }, 8);
        for _ in 0..100 {
            let (va, vb) = (a.victim(8), b.victim(8));
            assert_eq!(va, vb);
            assert!(va < 8);
        }
    }

    #[test]
    fn per_set_random_streams_differ() {
        let kind = ReplacementKind::Random { seed: 9 };
        let (mut a, mut b) = (filled(kind, 4), ReplacementState::new(kind, 4, 1));
        let seq_a: Vec<usize> = (0..32).map(|_| a.victim(4)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| b.victim(4)).collect();
        assert_ne!(seq_a, seq_b, "sets should have independent streams");
    }

    #[test]
    fn tree_plru_victim_avoids_recent() {
        let mut p = filled(ReplacementKind::TreePlru, 4);
        let v1 = p.victim(4);
        p.on_hit(v1);
        let v2 = p.victim(4);
        assert_ne!(v1, v2, "just-touched way must not be the next victim");
    }

    #[test]
    fn tree_plru_cycles_through_all_ways() {
        // Repeatedly evicting and refilling must touch every way.
        let mut p = filled(ReplacementKind::TreePlru, 8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = p.victim(8);
            seen.insert(v);
            p.on_fill(v);
        }
        assert_eq!(seen.len(), 8, "PLRU must rotate over all ways: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_odd_ways() {
        ReplacementState::new(ReplacementKind::TreePlru, 3, 0);
    }

    #[test]
    fn srrip_prefers_distant_rrpv() {
        let mut p = filled(ReplacementKind::Srrip, 4);
        p.on_hit(2); // rrpv[2] = 0
        let v = p.victim(4);
        assert_ne!(v, 2, "hit way has the nearest re-reference prediction");
    }

    #[test]
    fn srrip_ages_until_victim_found() {
        let mut p = filled(ReplacementKind::Srrip, 2);
        p.on_hit(0);
        p.on_hit(1);
        // Both at rrpv 0; aging must still terminate and pick way 0 first.
        assert_eq!(p.victim(2), 0);
    }

    #[test]
    fn single_way_sets_work_for_all_kinds() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random { seed: 1 },
            ReplacementKind::TreePlru,
            ReplacementKind::Srrip,
        ] {
            let mut p = filled(kind, 1);
            assert_eq!(p.victim(1), 0, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        ReplacementState::new(ReplacementKind::Lru, 0, 0);
    }

    #[test]
    fn state_round_trip_continues_victim_sequence() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random { seed: 42 },
            ReplacementKind::TreePlru,
            ReplacementKind::Srrip,
        ] {
            let mut p = filled(kind, 4);
            // Advance into a non-trivial state.
            for step in 0..13 {
                let v = p.victim(4);
                p.on_fill(v);
                p.on_hit(step % 4);
            }
            let json = serde_json::to_string(&p).expect("state serializes");
            let mut q: ReplacementState = serde_json::from_str(&json).expect("state parses");
            q.check(kind, 4).expect("same shape must load");
            for _ in 0..20 {
                let (vp, vq) = (p.victim(4), q.victim(4));
                assert_eq!(vp, vq, "{kind}: restored policy must track original");
                p.on_fill(vp);
                q.on_fill(vq);
            }
        }
    }

    #[test]
    fn load_state_rejects_kind_and_shape_mismatch() {
        let lru = ReplacementKind::Lru;
        let fifo_state = filled(ReplacementKind::Fifo, 4);
        assert!(fifo_state.check(lru, 4).is_err(), "kind mismatch");
        assert!(filled(lru, 8).check(lru, 4).is_err(), "way-count mismatch");
        let duplicate = ReplacementState::Lru {
            order: vec![0, 0, 1, 2],
        };
        assert!(
            duplicate.check(lru, 4).is_err(),
            "duplicate ways are not a permutation"
        );
        let srrip = ReplacementState::Srrip { rrpv: vec![9, 0] };
        assert!(
            srrip.check(ReplacementKind::Srrip, 2).is_err(),
            "out-of-range RRPV"
        );
        assert!(filled(ReplacementKind::TreePlru, 8)
            .check(ReplacementKind::TreePlru, 4)
            .is_err());
    }

    #[test]
    fn kind_display() {
        assert_eq!(ReplacementKind::Lru.to_string(), "LRU");
        assert_eq!(ReplacementKind::TreePlru.to_string(), "tree-PLRU");
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
    }
}
