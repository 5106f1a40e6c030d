//! Chord-style structured DHT overlay.
//!
//! Peers are placed on a 64-bit identifier ring at [`PeerId::ring_key`]; the
//! peer responsible for a key is the key's *successor* (first peer clockwise).
//! Routing is greedy finger routing: at each hop the current peer forwards to
//! the finger that most closely precedes the key, giving `O(log N)` hops.
//!
//! The ring is one sorted `Vec` and routing works on ring *positions*: the
//! successor of position `p` is `p + 1`, finger `i` is the position found by
//! one binary search for `key + 2^i`, and the closest preceding finger is
//! found by probing fingers from the largest that can still precede the key
//! downwards, so a hop neither builds a finger table nor allocates.

use super::{LookupResult, Overlay};
use crate::peer::PeerId;
use serde::{Deserialize, Serialize};

/// Number of finger entries (the full 64-bit ring is covered with 64 fingers,
/// but beyond ~40 the targets wrap for realistic network sizes; we keep 64 for
/// faithfulness).
const FINGER_BITS: u32 = 64;

/// A Chord-like DHT over the peers' ring keys.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChordOverlay {
    /// Members as `(ring key, peer)`, sorted by ring key. Keys are distinct
    /// because [`PeerId::ring_key`] is a bijection.
    ring: Vec<(u64, PeerId)>,
}

impl ChordOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an overlay containing `peers` with one sort.
    pub fn with_peers<I: IntoIterator<Item = PeerId>>(peers: I) -> Self {
        let mut ring: Vec<(u64, PeerId)> = peers.into_iter().map(|p| (p.ring_key(), p)).collect();
        ring.sort_unstable();
        ring.dedup();
        Self { ring }
    }

    /// Ring position of a member peer.
    fn position_of(&self, peer: PeerId) -> Option<usize> {
        self.ring
            .binary_search_by_key(&peer.ring_key(), |&(k, _)| k)
            .ok()
    }

    /// Ring position of the successor of `key`: the first member at or
    /// clockwise after it. The ring must be non-empty.
    fn owner_position(&self, key: u64) -> usize {
        let i = self.ring.partition_point(|&(k, _)| k < key);
        if i == self.ring.len() {
            0
        } else {
            i
        }
    }

    /// Ring position of finger `i` of the member at position `pos`: the owner
    /// of `key(pos) + 2^i`.
    fn finger_position(&self, pos: usize, i: u32) -> usize {
        self.owner_position(self.ring[pos].0.wrapping_add(1u64 << i))
    }

    /// The finger of the member at `pos` that most closely precedes `key`
    /// (or sits on it), given that `key` lies beyond the member's successor.
    ///
    /// A finger's clockwise distance from `pos` is at least `2^i`, and grows
    /// with `i` (the member itself excepted, reached when a target wraps
    /// past every other member). So the answer is the largest `i` whose
    /// finger does not overshoot the key, searched from the largest `i`
    /// with `2^i` within the key's distance; finger 0, the successor,
    /// always qualifies.
    fn closest_preceding_finger(&self, pos: usize, key: u64) -> usize {
        let base = self.ring[pos].0;
        let reach = key.wrapping_sub(base);
        let top = 63 - reach.leading_zeros();
        for i in (1..=top).rev() {
            let f = self.finger_position(pos, i);
            if f != pos && self.ring[f].0.wrapping_sub(base) <= reach {
                return f;
            }
        }
        (pos + 1) % self.ring.len()
    }

    /// The peer responsible for `key` (its successor on the ring).
    pub fn owner_of(&self, key: u64) -> Option<PeerId> {
        if self.ring.is_empty() {
            return None;
        }
        Some(self.ring[self.owner_position(key)].1)
    }

    /// The ring key of a member peer.
    pub fn ring_key_of(&self, peer: PeerId) -> Option<u64> {
        self.position_of(peer).map(|pos| self.ring[pos].0)
    }

    /// The successor of a member peer on the ring.
    pub fn successor(&self, peer: PeerId) -> Option<PeerId> {
        let pos = self.position_of(peer)?;
        Some(self.ring[(pos + 1) % self.ring.len()].1)
    }

    /// The finger table of a member peer: for each finger `i`, the peer
    /// responsible for `key + 2^i`. Duplicate entries are collapsed.
    pub fn finger_table(&self, peer: PeerId) -> Vec<PeerId> {
        let Some(pos) = self.position_of(peer) else {
            return Vec::new();
        };
        let mut fingers = Vec::new();
        for i in 0..FINGER_BITS {
            let f = self.finger_position(pos, i);
            // Fingers advance clockwise with `i`, so a repeat can only be
            // the previous entry.
            if f != pos && fingers.last() != Some(&self.ring[f].1) {
                fingers.push(self.ring[f].1);
            }
        }
        fingers
    }
}

impl Overlay for ChordOverlay {
    fn members(&self) -> Vec<PeerId> {
        let mut members: Vec<PeerId> = self.ring.iter().map(|&(_, p)| p).collect();
        members.sort_unstable();
        members
    }

    fn contains(&self, peer: PeerId) -> bool {
        self.position_of(peer).is_some()
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn lookup(&self, from: PeerId, key: u64) -> Option<LookupResult> {
        let mut current = self.position_of(from)?;
        let owner = self.owner_position(key);
        let mut path = Vec::new();
        // Greedy finger routing; bounded by the ring size to guarantee
        // termination even in degenerate cases.
        for _ in 0..=self.len() {
            if current == owner {
                break;
            }
            // If the key lies between us and our successor, the successor
            // owns it; otherwise forward to the closest preceding finger.
            let succ = (current + 1) % self.ring.len();
            current = if succ == owner {
                succ
            } else {
                self.closest_preceding_finger(current, key)
            };
            path.push(self.ring[current].1);
        }
        if current != owner {
            return None;
        }
        let owner = self.ring[owner].1;
        if path.is_empty() {
            // The source itself owns the key.
            path.push(owner);
        }
        let messages = path.len();
        Some(LookupResult {
            owner,
            path,
            messages,
        })
    }

    fn neighbors(&self, peer: PeerId) -> Vec<PeerId> {
        let mut n = self.finger_table(peer);
        if let Some(succ) = self.successor(peer) {
            if succ != peer && !n.contains(&succ) {
                n.push(succ);
            }
        }
        n
    }

    fn add_peer(&mut self, peer: PeerId) {
        let key = peer.ring_key();
        if let Err(pos) = self.ring.binary_search_by_key(&key, |&(k, _)| k) {
            self.ring.insert(pos, (key, peer));
        }
    }

    fn remove_peer(&mut self, peer: PeerId) {
        if let Some(pos) = self.position_of(peer) {
            self.ring.remove(pos);
        }
    }

    /// Batches the changes into one pass over the ring and one sort, instead
    /// of one shift of the ring per change.
    fn apply_membership(&mut self, changes: &[(PeerId, bool)]) {
        if changes.is_empty() {
            return;
        }
        // The last change of each peer decides its membership: after a
        // stable sort of the reversed changes, it is first among its key's.
        let mut last: Vec<(u64, PeerId, bool)> = changes
            .iter()
            .rev()
            .map(|&(peer, join)| (peer.ring_key(), peer, join))
            .collect();
        last.sort_by_key(|&(key, _, _)| key);
        last.dedup_by_key(|&mut (key, _, _)| key);
        self.ring
            .retain(|&(key, _)| last.binary_search_by_key(&key, |&(k, _, _)| k).is_err());
        self.ring.extend(
            last.iter()
                .filter(|&&(_, _, join)| join)
                .map(|&(key, peer, _)| (key, peer)),
        );
        self.ring.sort_unstable();
    }
}

/// The pre-position-space Chord: `BTreeMap` ring plus reverse map, a
/// finger table rebuilt at every hop and a greedy scan over it. Kept as the
/// routing oracle that pins [`ChordOverlay`]'s output.
#[cfg(test)]
mod reference {
    use super::FINGER_BITS;
    use crate::overlay::LookupResult;
    use crate::peer::PeerId;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Default)]
    pub(super) struct ReferenceChord {
        ring: BTreeMap<u64, PeerId>,
        keys: BTreeMap<PeerId, u64>,
    }

    impl ReferenceChord {
        pub(super) fn add_peer(&mut self, peer: PeerId) {
            let key = peer.ring_key();
            self.ring.insert(key, peer);
            self.keys.insert(peer, key);
        }

        pub(super) fn remove_peer(&mut self, peer: PeerId) {
            if let Some(key) = self.keys.remove(&peer) {
                self.ring.remove(&key);
            }
        }

        pub(super) fn members(&self) -> Vec<PeerId> {
            self.keys.keys().copied().collect()
        }

        pub(super) fn owner_of(&self, key: u64) -> Option<PeerId> {
            self.ring
                .range(key..)
                .next()
                .or_else(|| self.ring.iter().next())
                .map(|(_, &p)| p)
        }

        fn ring_key_of(&self, peer: PeerId) -> Option<u64> {
            self.keys.get(&peer).copied()
        }

        pub(super) fn successor(&self, peer: PeerId) -> Option<PeerId> {
            let key = self.ring_key_of(peer)?;
            self.ring
                .range(key.wrapping_add(1)..)
                .next()
                .or_else(|| self.ring.iter().next())
                .map(|(_, &p)| p)
        }

        pub(super) fn finger_table(&self, peer: PeerId) -> Vec<PeerId> {
            let Some(key) = self.ring_key_of(peer) else {
                return Vec::new();
            };
            let mut fingers = Vec::new();
            for i in 0..FINGER_BITS {
                let target = key.wrapping_add(1u64.wrapping_shl(i));
                if let Some(owner) = self.owner_of(target) {
                    if owner != peer && fingers.last() != Some(&owner) {
                        fingers.push(owner);
                    }
                }
            }
            fingers.dedup();
            fingers
        }

        /// True when `x` lies on the clockwise arc `(a, b]` of the ring.
        pub(super) fn in_arc(a: u64, b: u64, x: u64) -> bool {
            if a < b {
                x > a && x <= b
            } else if a > b {
                x > a || x <= b
            } else {
                // a == b: the arc covers the whole ring.
                true
            }
        }

        pub(super) fn lookup(&self, from: PeerId, key: u64) -> Option<LookupResult> {
            if !self.keys.contains_key(&from) || self.ring.is_empty() {
                return None;
            }
            let owner = self.owner_of(key)?;
            let mut path = Vec::new();
            let mut current = from;
            for _ in 0..=self.keys.len() {
                if current == owner {
                    break;
                }
                let cur_key = self.ring_key_of(current)?;
                let succ = self.successor(current)?;
                let succ_key = self.ring_key_of(succ)?;
                if Self::in_arc(cur_key, succ_key, key) {
                    path.push(succ);
                    current = succ;
                    continue;
                }
                let fingers = self.finger_table(current);
                let mut next = succ;
                let mut best_dist = key.wrapping_sub(self.ring_key_of(succ)?);
                for f in fingers {
                    let fk = self.ring_key_of(f)?;
                    let dist = key.wrapping_sub(fk);
                    if dist < best_dist && f != current {
                        best_dist = dist;
                        next = f;
                    }
                }
                if next == current {
                    next = succ;
                }
                path.push(next);
                current = next;
            }
            if current != owner {
                return None;
            }
            if path.is_empty() {
                path.push(owner);
            }
            let messages = path.len();
            Some(LookupResult {
                owner,
                path,
                messages,
            })
        }

        pub(super) fn neighbors(&self, peer: PeerId) -> Vec<PeerId> {
            let mut n = self.finger_table(peer);
            if let Some(succ) = self.successor(peer) {
                if succ != peer && !n.contains(&succ) {
                    n.push(succ);
                }
            }
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceChord;
    use super::*;
    use crate::peer::mix64;
    use proptest::prelude::*;

    fn overlay(n: u64) -> ChordOverlay {
        ChordOverlay::with_peers((0..n).map(PeerId))
    }

    /// Brute-force owner: the member with the smallest ring key ≥ key, else the
    /// globally smallest ring key.
    fn brute_force_owner(o: &ChordOverlay, key: u64) -> PeerId {
        let mut members: Vec<(u64, PeerId)> = o
            .members()
            .into_iter()
            .map(|p| (o.ring_key_of(p).unwrap(), p))
            .collect();
        members.sort_unstable();
        members
            .iter()
            .find(|&&(k, _)| k >= key)
            .or_else(|| members.first())
            .map(|&(_, p)| p)
            .unwrap()
    }

    #[test]
    fn owner_matches_brute_force() {
        let o = overlay(64);
        for i in 0..500u64 {
            let key = mix64(i);
            assert_eq!(
                o.owner_of(key),
                Some(brute_force_owner(&o, key)),
                "key {key}"
            );
        }
    }

    #[test]
    fn lookup_finds_the_owner_from_any_source() {
        let o = overlay(128);
        for i in 0..200u64 {
            let key = mix64(i * 7 + 1);
            let from = PeerId(i % 128);
            let r = o.lookup(from, key).expect("lookup succeeds");
            assert_eq!(Some(r.owner), o.owner_of(key));
            assert_eq!(*r.path.last().unwrap(), r.owner);
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let o = overlay(512);
        let mut total_hops = 0usize;
        let n_lookups = 300;
        for i in 0..n_lookups as u64 {
            let key = mix64(i + 9_999);
            let from = PeerId(mix64(i) % 512);
            total_hops += o.lookup(from, key).unwrap().hops();
        }
        let mean = total_hops as f64 / n_lookups as f64;
        // log2(512) = 9; greedy finger routing should average well below that
        // and must not degenerate towards O(N).
        assert!(mean < 12.0, "mean hops {mean}");
        assert!(mean >= 1.0);
    }

    #[test]
    fn lookup_from_owner_is_single_hop_to_self() {
        let o = overlay(16);
        // Pick a key owned by peer 3.
        let key = o.ring_key_of(PeerId(3)).unwrap();
        let r = o.lookup(PeerId(3), key).unwrap();
        assert_eq!(r.owner, PeerId(3));
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn removing_a_peer_transfers_its_keys_to_the_successor() {
        let mut o = overlay(32);
        let victim = PeerId(5);
        let key = o.ring_key_of(victim).unwrap();
        assert_eq!(o.owner_of(key), Some(victim));
        let succ = o.successor(victim).unwrap();
        o.remove_peer(victim);
        assert_eq!(o.owner_of(key), Some(succ));
        assert!(!o.contains(victim));
        assert_eq!(o.len(), 31);
    }

    #[test]
    fn lookup_fails_for_non_member_source() {
        let o = overlay(8);
        assert!(o.lookup(PeerId(99), 42).is_none());
    }

    #[test]
    fn empty_overlay_has_no_owner() {
        let o = ChordOverlay::new();
        assert!(o.owner_of(1).is_none());
        assert!(o.is_empty());
    }

    #[test]
    fn neighbors_are_bounded_by_log_n() {
        let o = overlay(256);
        for i in 0..256u64 {
            let n = o.neighbors(PeerId(i)).len();
            assert!(n <= 66, "peer {i} has {n} neighbors");
            assert!(n >= 1);
        }
    }

    #[test]
    fn in_arc_wraparound() {
        assert!(ReferenceChord::in_arc(10, 20, 15));
        assert!(!ReferenceChord::in_arc(10, 20, 25));
        assert!(ReferenceChord::in_arc(u64::MAX - 5, 5, 2));
        assert!(ReferenceChord::in_arc(u64::MAX - 5, 5, u64::MAX));
        assert!(!ReferenceChord::in_arc(u64::MAX - 5, 5, 100));
    }

    /// Inverse of `x ^ (x >> shift)`.
    fn unxorshift(y: u64, shift: u32) -> u64 {
        let mut x = y;
        let mut t = y >> shift;
        while t != 0 {
            x ^= t;
            t >>= shift;
        }
        x
    }

    /// Multiplicative inverse of an odd `a` modulo 2^64 (Newton iteration).
    fn inverse_mod_2_64(a: u64) -> u64 {
        let mut inv = a;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
        }
        inv
    }

    /// The peer whose ring key is `key`, by inverting `PeerId::ring_key`, so
    /// tests can place members exactly next to the `u64::MAX` wrap.
    fn peer_at(key: u64) -> PeerId {
        let mut z = unxorshift(key, 31);
        z = unxorshift(z.wrapping_mul(inverse_mod_2_64(0x94D0_49BB_1331_11EB)), 27);
        z = unxorshift(z.wrapping_mul(inverse_mod_2_64(0xBF58_476D_1CE4_E5B9)), 30);
        let id = z
            .wrapping_sub(0x9E37_79B9_7F4A_7C15)
            .wrapping_sub(0xA5A5_5A5A_DEAD_BEEF);
        let peer = PeerId(id);
        assert_eq!(peer.ring_key(), key);
        peer
    }

    fn build_both(peers: &[PeerId]) -> (ChordOverlay, ReferenceChord) {
        let mut reference = ReferenceChord::default();
        for &p in peers {
            reference.add_peer(p);
        }
        (ChordOverlay::with_peers(peers.iter().copied()), reference)
    }

    /// Asserts that the overlay agrees with the reference on membership,
    /// ownership, successors, finger tables, neighbours and every lookup of
    /// `keys` from every member (and from one non-member).
    fn assert_matches_reference(o: &ChordOverlay, r: &ReferenceChord, keys: &[u64]) {
        assert_eq!(o.members(), r.members());
        assert_eq!(o.len(), r.members().len());
        for &key in keys {
            assert_eq!(o.owner_of(key), r.owner_of(key), "owner of {key}");
        }
        for p in r.members() {
            assert!(o.contains(p));
            assert_eq!(o.successor(p), r.successor(p), "successor of {p}");
            assert_eq!(o.finger_table(p), r.finger_table(p), "fingers of {p}");
            assert_eq!(o.neighbors(p), r.neighbors(p), "neighbors of {p}");
            for &key in keys {
                assert_eq!(o.lookup(p, key), r.lookup(p, key), "lookup {key} from {p}");
            }
        }
        let outsider = PeerId(u64::MAX);
        assert!(!o.contains(outsider));
        assert_eq!(o.lookup(outsider, 7), r.lookup(outsider, 7));
        assert_eq!(o.finger_table(outsider), r.finger_table(outsider));
    }

    #[test]
    fn routing_matches_reference_at_the_wrap() {
        let near_wrap = [u64::MAX, u64::MAX - 1, 0, 1, u64::MAX / 2];
        let mut peers: Vec<PeerId> = near_wrap.iter().map(|&k| peer_at(k)).collect();
        peers.extend((0..40).map(PeerId));
        let mut keys = vec![u64::MAX, u64::MAX - 1, u64::MAX - 2, 0, 1, 2];
        keys.extend(peers.iter().flat_map(|p| {
            let k = p.ring_key();
            [k.wrapping_sub(1), k, k.wrapping_add(1)]
        }));
        // Prefixes from the single-member ring (at key u64::MAX) upwards.
        for n in [1, 2, 3, 5, peers.len()] {
            let (o, r) = build_both(&peers[..n]);
            assert_matches_reference(&o, &r, &keys);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn batched_membership_equals_one_change_at_a_time(
            initial in prop::collection::btree_set(0u64..64, 0..40),
            ops in prop::collection::vec((any::<bool>(), 0u64..64), 0..40),
        ) {
            let changes: Vec<(PeerId, bool)> =
                ops.into_iter().map(|(join, id)| (PeerId(id), join)).collect();
            let mut batched = ChordOverlay::with_peers(initial.iter().copied().map(PeerId));
            let mut single = batched.clone();
            batched.apply_membership(&changes);
            for &(peer, join) in &changes {
                if join {
                    single.add_peer(peer);
                } else {
                    single.remove_peer(peer);
                }
            }
            prop_assert_eq!(batched.ring, single.ring);
        }

        #[test]
        fn routing_matches_reference_on_random_rings(
            ids in prop::collection::btree_set(0u64..100_000, 1..48),
            keys in prop::collection::vec(any::<u64>(), 1..12),
        ) {
            let peers: Vec<PeerId> = ids.into_iter().map(PeerId).collect();
            let (o, r) = build_both(&peers);
            assert_matches_reference(&o, &r, &keys);
        }

        #[test]
        fn routing_matches_reference_under_interleaved_churn(
            ops in prop::collection::vec((any::<bool>(), 0u64..32), 1..60),
            keys in prop::collection::vec(any::<u64>(), 1..6),
        ) {
            let mut o = ChordOverlay::new();
            let mut r = ReferenceChord::default();
            for (join, id) in ops {
                // Draw a few members right at the wrap too.
                let peer = if id < 3 { peer_at(u64::MAX - id) } else { PeerId(id) };
                if join {
                    o.add_peer(peer);
                    r.add_peer(peer);
                } else {
                    o.remove_peer(peer);
                    r.remove_peer(peer);
                }
                assert_matches_reference(&o, &r, &keys);
            }
        }
    }
}
