//! Round-based network facade for P2P data-mining protocols.
//!
//! The CEMPaR and PACE protocols are naturally phased (train locally →
//! propagate models → answer prediction queries). Rather than forcing every
//! protocol into the event-driven engine, P2PDMT exposes this facade: the
//! protocol asks the network to deliver messages, perform DHT lookups, or
//! broadcast, and the facade handles overlay routing, churn-induced failures,
//! latency accumulation and full per-kind / per-peer cost accounting.
//! Simulated time advances explicitly via [`P2PNetwork::advance`], so a
//! protocol phase can be placed anywhere on the churn timeline.

use crate::bitset::{Ones, PeerBitset};
use crate::churn::ChurnTimeline;
use crate::config::SimConfig;
use crate::faults::{FaultDrop, FaultState, PartitionWindow, SendFault};
use crate::logging::ActivityLog;
use crate::message::MessageKind;
use crate::overlay::{AnyOverlay, Overlay, SuperPeerDirectory};
use crate::peer::PeerId;
use crate::physical::PhysicalNetwork;
use crate::stats::SimStats;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Why a message could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryError {
    /// The sending peer is currently offline.
    SenderOffline,
    /// The destination peer is currently offline.
    ReceiverOffline,
    /// The overlay could not route the key (failed flooding search, empty ring).
    NoRoute,
    /// The fault layer dropped the message (random or burst loss).
    Lost,
    /// The fault layer dropped the message: an active partition window
    /// severs the sender from the receiver.
    Partitioned,
}

impl std::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeliveryError::SenderOffline => "sender offline",
            DeliveryError::ReceiverOffline => "receiver offline",
            DeliveryError::NoRoute => "no route to key owner",
            DeliveryError::Lost => "message lost in transit",
            DeliveryError::Partitioned => "network partition between peers",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DeliveryError {}

/// Size in bytes charged for one DHT routing hop (header-sized control message).
const LOOKUP_HOP_BYTES: usize = 64;

/// Outcome of a successful byte-frame send ([`P2PNetwork::send_frame`]).
#[derive(Debug, Clone)]
pub struct FrameDelivery {
    /// One-way delivery latency (including any fault-injected spike/jitter).
    pub latency: SimTime,
    /// `Some(bytes)` when the fault layer damaged the frame in transit —
    /// these are the bytes the receiver sees. `None` means the frame arrived
    /// intact (the clean path copies nothing).
    pub corrupted: Option<Vec<u8>>,
}

/// The round-based simulated P2P network.
pub struct P2PNetwork {
    config: SimConfig,
    overlay: AnyOverlay,
    physical: PhysicalNetwork,
    churn: ChurnTimeline,
    /// Cached set of peers online at `now`, refreshed whenever time moves
    /// ([`Self::advance`]). Makes `is_online` an O(1) bit test instead of a
    /// per-call scan of the churn intervals, and `online_peers` an
    /// allocation-free iterator.
    online: PeerBitset,
    stats: SimStats,
    log: ActivityLog,
    now: SimTime,
    rng: StdRng,
    /// Executes the configured fault plan from its own seeded RNG stream
    /// (RNG-neutral when the plan is disabled).
    faults: FaultState,
    /// Peers crashed since the last [`Self::drain_crash_restarts`] call.
    crashed: Vec<PeerId>,
    /// Partition windows healed since the last
    /// [`Self::drain_healed_partitions`] call.
    healed: Vec<PartitionWindow>,
}

impl P2PNetwork {
    /// Builds a network from a configuration: generates the overlay over all
    /// peers, the physical underlay and the churn timeline, then synchronizes
    /// overlay membership with the peers online at time zero.
    pub fn new(config: SimConfig) -> Self {
        let overlay = config.build_overlay();
        let physical = PhysicalNetwork::new(config.physical.clone());
        let churn = ChurnTimeline::generate(
            config.churn,
            config.num_peers,
            config.horizon(),
            config.seed,
        );
        let rng = StdRng::seed_from_u64(config.seed ^ 0xFEED_FACE);
        let faults = FaultState::new(config.faults.clone(), config.seed);
        let num_peers = config.num_peers;
        let mut net = Self {
            config,
            overlay,
            physical,
            churn,
            online: PeerBitset::new(num_peers),
            stats: SimStats::with_peers(num_peers),
            log: ActivityLog::default(),
            now: SimTime::ZERO,
            rng,
            faults,
            crashed: Vec::new(),
            healed: Vec::new(),
        };
        net.sync_overlay_membership();
        net
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Total number of peers (online or not).
    pub fn num_peers(&self) -> usize {
        self.config.num_peers
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.config.num_peers as u64).map(PeerId)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances simulated time and updates overlay membership to reflect
    /// churn. Crash-restart events and partition heals scheduled inside the
    /// window are executed here and buffered for
    /// [`Self::drain_crash_restarts`] / [`Self::drain_healed_partitions`].
    pub fn advance(&mut self, dt: SimTime) {
        let from = self.now;
        let to = self.now + dt;
        let mut crashed = Vec::new();
        self.faults
            .crashes_between(from, to, self.config.num_peers, &mut crashed);
        self.healed.extend(self.faults.healed_between(from, to));
        self.now = to;
        self.sync_overlay_membership();
        for p in crashed {
            // A crash of a peer that churn already has offline is a no-op:
            // there is no in-memory state to lose.
            if self.online.contains(p) {
                self.stats.faults.crashes += 1;
                self.log.log(to, Some(p), "crash", "peer crash-restarted");
                self.crashed.push(p);
            }
        }
    }

    /// Peers that crash-restarted since the last call, in event order. A
    /// crashed peer stays online but loses its in-memory protocol state —
    /// the protocol layer is expected to wipe and recover it.
    pub fn drain_crash_restarts(&mut self) -> Vec<PeerId> {
        std::mem::take(&mut self.crashed)
    }

    /// Partition windows whose heal time passed since the last call. The
    /// protocol layer can run anti-entropy for the peers that were cut off.
    pub fn drain_healed_partitions(&mut self) -> Vec<PartitionWindow> {
        std::mem::take(&mut self.healed)
    }

    /// Records a reliability-layer retransmission attempt (for stats).
    pub fn note_retransmit(&mut self) {
        self.stats.faults.retransmits += 1;
    }

    /// Records a reliable send that succeeded after at least one failure.
    pub fn note_recovered(&mut self) {
        self.stats.faults.recovered += 1;
    }

    /// Records a completed anti-entropy resync exchange.
    pub fn note_resync(&mut self) {
        self.stats.faults.resyncs += 1;
    }

    /// Deterministic RNG tied to this network's seed.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Whether a peer is currently online. O(1) against the cached bitset.
    pub fn is_online(&self, peer: PeerId) -> bool {
        self.online.contains(peer)
    }

    /// Iterates all currently online peers in ascending id order, without
    /// allocating.
    pub fn online_peers(&self) -> Ones<'_> {
        self.online.ones()
    }

    /// Number of peers currently online. O(1).
    pub fn num_online(&self) -> usize {
        self.online.len()
    }

    /// Fraction of peers currently online.
    pub fn availability(&self) -> f64 {
        if self.config.num_peers == 0 {
            return 0.0;
        }
        self.online.len() as f64 / self.config.num_peers as f64
    }

    /// The overlay (read access, e.g. for super-peer election).
    pub fn overlay(&self) -> &AnyOverlay {
        &self.overlay
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The activity log.
    pub fn log(&self) -> &ActivityLog {
        &self.log
    }

    /// Mutable activity log (for protocol-level annotations).
    pub fn log_mut(&mut self) -> &mut ActivityLog {
        &mut self.log
    }

    /// Builds a super-peer directory with `regions` regions over this overlay.
    pub fn super_peer_directory(&self, regions: usize) -> SuperPeerDirectory {
        SuperPeerDirectory::new(regions)
    }

    /// Sends `size_bytes` of category `kind` from `from` to `to`.
    ///
    /// On success returns the one-way delivery latency; on failure the traffic
    /// is still charged to the sender (the bytes were put on the wire) and the
    /// appropriate error is returned.
    pub fn send(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        size_bytes: usize,
    ) -> Result<SimTime, DeliveryError> {
        let extra = self.admit(from, to, kind, size_bytes)?;
        let latency = self.physical.delivery_delay(from, to, size_bytes) + extra;
        self.stats
            .record_delivery(from, to, kind, size_bytes, latency);
        Ok(latency)
    }

    /// Sends an encoded byte frame from `from` to `to`, charging its exact
    /// length. Unlike [`Self::send`] (which moves only a size), the fault
    /// layer can damage the frame in transit: the returned
    /// [`FrameDelivery::corrupted`] carries the bytes the receiver actually
    /// sees (`None` = intact, and nothing was copied). Frame bytes are
    /// charged in full even when the delivered frame was truncated — the
    /// sender paid to put them on the wire.
    pub fn send_frame(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        frame: &[u8],
    ) -> Result<FrameDelivery, DeliveryError> {
        let extra = self.admit(from, to, kind, frame.len())?;
        let latency = self.physical.delivery_delay(from, to, frame.len()) + extra;
        self.stats
            .record_delivery(from, to, kind, frame.len(), latency);
        let corrupted = self.faults.corrupt_frame(frame).map(|(bytes, _)| {
            self.stats.faults.corrupted += 1;
            bytes
        });
        Ok(FrameDelivery { latency, corrupted })
    }

    /// Shared admission path of [`Self::send`] / [`Self::send_frame`]:
    /// online checks, then the fault layer's verdict. Fault drops are
    /// charged like churn drops (the bytes were put on the wire) and
    /// counted in [`crate::stats::FaultStats`]. Returns the extra
    /// fault-injected latency to add to the physical delay.
    fn admit(
        &mut self,
        from: PeerId,
        to: PeerId,
        kind: MessageKind,
        size_bytes: usize,
    ) -> Result<SimTime, DeliveryError> {
        if !self.is_online(from) {
            return Err(DeliveryError::SenderOffline);
        }
        if !self.is_online(to) {
            self.stats.record_drop(from, kind, size_bytes);
            return Err(DeliveryError::ReceiverOffline);
        }
        match self.faults.on_send(self.now, from, to) {
            SendFault::Deliver {
                extra_latency,
                spiked,
            } => {
                if spiked {
                    self.stats.faults.latency_spikes += 1;
                }
                Ok(extra_latency)
            }
            SendFault::Drop(drop) => {
                self.stats.record_drop(from, kind, size_bytes);
                match drop {
                    FaultDrop::Loss { burst: true } => {
                        self.stats.faults.burst_lost += 1;
                        Err(DeliveryError::Lost)
                    }
                    FaultDrop::Loss { burst: false } => {
                        self.stats.faults.lost += 1;
                        Err(DeliveryError::Lost)
                    }
                    FaultDrop::Partitioned => {
                        self.stats.faults.partition_drops += 1;
                        Err(DeliveryError::Partitioned)
                    }
                }
            }
        }
    }

    /// Routes `key` through the overlay starting at `from`, charging one small
    /// control message per overlay hop. Returns the owner and the hop count.
    pub fn dht_lookup(&mut self, from: PeerId, key: u64) -> Result<(PeerId, usize), DeliveryError> {
        if !self.is_online(from) {
            return Err(DeliveryError::SenderOffline);
        }
        let result = self
            .overlay
            .lookup(from, key)
            .ok_or(DeliveryError::NoRoute)?;
        // Charge each routing message along the path.
        let mut prev = from;
        for &hop in &result.path {
            let latency = self.physical.delivery_delay(prev, hop, LOOKUP_HOP_BYTES);
            self.stats.record_delivery(
                prev,
                hop,
                MessageKind::DhtLookup,
                LOOKUP_HOP_BYTES,
                latency,
            );
            prev = hop;
        }
        // Flooding overlays may have spent more messages than the path length.
        let extra = result.messages.saturating_sub(result.path.len());
        for _ in 0..extra {
            self.stats.record_delivery(
                from,
                result.owner,
                MessageKind::DhtLookup,
                LOOKUP_HOP_BYTES,
                SimTime::ZERO,
            );
        }
        self.stats.record_lookup(result.hops());
        Ok((result.owner, result.hops()))
    }

    /// Sends `size_bytes` of `kind` from `from` to every other online peer.
    /// Returns the number of peers actually reached.
    pub fn broadcast(&mut self, from: PeerId, kind: MessageKind, size_bytes: usize) -> usize {
        if !self.is_online(from) {
            return 0;
        }
        // Index walk + O(1) bit tests: no target list is materialized even
        // when 10k peers are online.
        let mut reached = 0;
        for i in 0..self.config.num_peers {
            let to = PeerId::from(i);
            if to != from
                && self.online.contains(to)
                && self.send(from, to, kind, size_bytes).is_ok()
            {
                reached += 1;
            }
        }
        reached
    }

    fn sync_overlay_membership(&mut self) {
        let now = self.now;
        let mut changes = Vec::new();
        for i in 0..self.config.num_peers {
            let p = PeerId::from(i);
            let online = self.churn.is_online(p, now);
            self.online.set(p, online);
            let member = self.overlay.contains(p);
            if online && !member {
                changes.push((p, true));
                self.log.log(now, Some(p), "join", "peer joined overlay");
            } else if !online && member {
                changes.push((p, false));
                self.log.log(now, Some(p), "leave", "peer left overlay");
            }
        }
        // One batch per sync: an epoch of churn at tens of thousands of
        // peers moves thousands of members, and a shift of the Chord ring
        // per change would make the step quadratic.
        self.overlay.apply_membership(&changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::config::OverlayKind;
    use crate::peer::content_key;

    fn small_network(num_peers: usize) -> P2PNetwork {
        P2PNetwork::new(SimConfig {
            num_peers,
            horizon_secs: 10_000,
            ..Default::default()
        })
    }

    #[test]
    fn send_between_online_peers_succeeds_and_is_accounted() {
        let mut net = small_network(8);
        let latency = net
            .send(PeerId(0), PeerId(1), MessageKind::ModelPropagation, 500)
            .unwrap();
        assert!(latency > SimTime::ZERO);
        assert_eq!(net.stats().total_bytes(), 500);
        assert_eq!(net.stats().kind(MessageKind::ModelPropagation).messages, 1);
    }

    #[test]
    fn dht_lookup_charges_per_hop() {
        let mut net = small_network(64);
        let (owner, hops) = net.dht_lookup(PeerId(3), content_key(b"rust")).unwrap();
        assert!(net.peers().any(|p| p == owner));
        assert!(hops >= 1);
        assert_eq!(
            net.stats().kind(MessageKind::DhtLookup).messages as usize,
            hops
        );
        assert!(net.stats().mean_lookup_hops() >= 1.0);
    }

    #[test]
    fn broadcast_reaches_all_other_online_peers() {
        let mut net = small_network(16);
        let reached = net.broadcast(PeerId(0), MessageKind::CentroidPropagation, 100);
        assert_eq!(reached, 15);
        assert_eq!(net.stats().total_bytes(), 1_500);
    }

    #[test]
    fn churn_takes_peers_offline_and_send_fails() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 64,
            churn: ChurnModel::Exponential {
                mean_session_secs: 100.0,
                mean_offline_secs: 100.0,
            },
            horizon_secs: 10_000,
            ..Default::default()
        });
        net.advance(SimTime::from_secs(5_000));
        let availability = net.availability();
        assert!(availability < 0.95, "availability {availability}");
        // Find an offline peer and check that sends to it fail.
        let offline = net
            .peers()
            .find(|&p| !net.is_online(p))
            .expect("some peer is offline under 50% availability churn");
        let online = net.peers().find(|&p| net.is_online(p)).unwrap();
        assert_eq!(
            net.send(online, offline, MessageKind::Other, 10),
            Err(DeliveryError::ReceiverOffline)
        );
        assert_eq!(
            net.send(offline, online, MessageKind::Other, 10),
            Err(DeliveryError::SenderOffline)
        );
        // Overlay membership must match the online set.
        assert_eq!(net.overlay().len(), net.num_online());
        assert_eq!(net.online_peers().count(), net.num_online());
    }

    #[test]
    fn unstructured_overlay_lookups_work_via_facade() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 64,
            overlay: OverlayKind::Unstructured { degree: 6, ttl: 6 },
            ..Default::default()
        });
        let result = net.dht_lookup(PeerId(5), content_key(b"database"));
        assert!(result.is_ok());
        // Flooding charges at least as many messages as a structured lookup.
        assert!(net.stats().kind(MessageKind::DhtLookup).messages >= 1);
    }

    #[test]
    fn offline_sender_cannot_lookup_or_broadcast() {
        let mut net = P2PNetwork::new(SimConfig {
            num_peers: 16,
            churn: ChurnModel::Exponential {
                mean_session_secs: 1.0,
                mean_offline_secs: 1_000.0,
            },
            horizon_secs: 10_000,
            ..Default::default()
        });
        net.advance(SimTime::from_secs(5_000));
        let offline = net
            .peers()
            .find(|&p| !net.is_online(p))
            .expect("nearly everyone is offline");
        assert_eq!(
            net.dht_lookup(offline, 1),
            Err(DeliveryError::SenderOffline)
        );
        assert_eq!(net.broadcast(offline, MessageKind::Other, 1), 0);
    }

    #[test]
    fn advancing_time_is_monotonic() {
        let mut net = small_network(4);
        let t0 = net.now();
        net.advance(SimTime::from_secs(10));
        assert_eq!(net.now(), t0 + SimTime::from_secs(10));
    }
}
