//! Reliable delivery over a faulty datagram wire.
//!
//! CVM's communication layer is a set of "efficient, end-to-end protocols
//! built on top of UDP" — the kernel gives it datagrams that can vanish,
//! and the library supplies ordering, retransmission, and dedup.  The
//! plain [`Network`](crate::Network) skips all of that (its channels are
//! reliable), which is fine for most experiments; this module supplies the
//! real thing for runs that want wire-level failure injection:
//!
//! * a seeded *fault plan* ([`FaultPlan`]) injecting per-link Bernoulli
//!   loss, duplication, delay, reordering windows, payload corruption
//!   (seeded bit-flips, truncation, garbage tails), and scripted events
//!   ("partition node N at datagram K", "kill node N at event K",
//!   "corrupt node N's frame K");
//! * checksummed wire frames — every datagram crosses the wire as bytes
//!   behind a magic/length/CRC-32C header
//!   ([`encode_frame`](crate::wire::encode_frame)/
//!   [`decode_frame`]), so corruption is
//!   *detected* at the receiver, which discards the frame and asks its
//!   sender for a repair;
//! * per-flow sequence numbers with cumulative ACKs;
//! * receiver-side reordering and duplicate suppression;
//! * negative acknowledgements: a receiver sends `NAK(upto)` — its
//!   cumulative ACK for the sender's flow — when a frame fails the
//!   checksum (the sender is known from the datagram's source address,
//!   which the damage cannot touch) and when a data datagram reveals a
//!   sequence gap (once per gap).  The sender takes it as an ACK, resends
//!   what is still unacknowledged above `upto` — each datagram at most
//!   once per retransmission-timer period, without spending its
//!   retransmit budget — and re-sends its own ACK of the NAKer's flow, in
//!   case that was the damaged frame.  One round trip instead of one RTO;
//! * an adaptive retransmission timer: each flow keeps an RFC 6298
//!   smoothed round-trip estimate (SRTT/RTTVAR), sampled only from
//!   datagrams whose original copy was acknowledged (Karn's rule), and
//!   times its datagrams with `SRTT + 4·RTTVAR` clamped to
//!   `rto ..= max_rto` — the plan's `rto` is also the timeout until the
//!   first sample (RFC 6298's initial and minimum RTO) — backed off
//!   exponentially with keyed jitter.  On a loaded host the estimate
//!   lengthens the timer; it never shortens it below what the plan chose;
//! * a tail-loss probe (RFC 8985 §7): a lost *tail* datagram reveals no
//!   gap, so each time a flow's ACK point moves or it sends a new
//!   datagram, a deadline `max(2·SRTT, 200 µs, rto/32)` is armed; when it
//!   passes, the newest unacknowledged datagram is resent once as a
//!   repair that spends no attempt — at most one probe per ACK advance.
//!   A descheduled peer looks exactly like a lost tail, so the floor is
//!   about what a healthy engine waits for a core on a loaded host
//!   (200 µs), or a fraction of a plan sized against longer host stalls;
//! * death by silence: a peer is declared *dead* (surfaced as
//!   [`NetEvent::PeerDead`](crate::NetEvent)) only once one datagram has
//!   spent `max_retransmits` *and* nothing valid has arrived from the peer
//!   for as long as the fixed schedule `Σ min(rto·2^k, max_rto)` took to
//!   spend them, so no timer detects a death sooner than that schedule,
//!   and a peer that still answers is never dead.
//!
//! The application-facing API is unchanged: [`Network::with_loss`] hands
//! out the same [`Endpoint`]s/[`NetSender`]s, so the whole DSM (and the
//! race detector above it) runs unmodified over a faulty wire — see the
//! `lossy_wire` cluster tests and the chaos suites.
//!
//! # Determinism
//!
//! Every fault decision — including whether a frame is corrupted and
//! which mutation it receives — is a pure splitmix64-style hash of the
//! plan seed and the *identity* of the datagram copy — `(link, sequence,
//! attempt, repair ordinal)` for data, `(link, cumulative-ack value, copy
//! ordinal of that value)` for ACKs and NAKs — never of wall-clock time or
//! call order.  Every copy draws its own dice: a copy that fails does not
//! doom the next one.  A given `(FaultPlan, seed)` therefore reproduces
//! the exact same drop/dup/delay/corrupt/kill sequence for the same
//! traffic, which keeps record/replay and the bit-identical parallel
//! detector epoch intact.  *Which* copies exist is another matter:
//! retransmissions fire on wall-clock timers, and repairs and re-sent
//! ACKs follow NAKs that race them, so their counts are timing-dependent.
//! A wire with no loss, corruption, delay or reordering sends no NAK, and
//! a peer that answers within the probe and retransmission timeouts draws
//! no probe and no retransmission; determinism tests pin that regime.
//!
//! [`Endpoint`]: crate::Endpoint
//! [`NetSender`]: crate::NetSender
//! [`Network::with_loss`]: crate::Network::with_loss

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cvm_vclock::ProcId;

use crate::link::{metered_link, LinkRx, LinkTx};
use crate::wire::{decode_frame, encode_framed, Wire};
use crate::{NetError, NetEvent, Packet};

/// How an injected corruption mutates a frame's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flips one bit at a seeded position.
    BitFlip,
    /// Cuts the frame short at a seeded length.
    Truncate,
    /// Appends 1–16 seeded garbage bytes.
    GarbageTail,
}

/// A protocol window inside the layer above the transport (the DSM
/// detection machinery).  The reliability engine carries these names in
/// the [`FaultPlan`] but never interprets them: a
/// [`FaultEvent::KillAtPhase`] strike is read back out of the plan by the
/// protocol layer, which self-destructs the named node the `hit`-th time
/// it enters the window.  That keeps strikes deterministic per plan (no
/// wire-timing dependence) while letting tests land kills inside windows
/// the transport cannot see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolPhase {
    /// Barrier arrival: closing the interval and collecting at the master.
    BarrierCollect,
    /// The access-bitmap request/reply round of detection.
    BitmapRound,
    /// The checkpoint ack → commit (CkptAck/CkptGo) window.
    CkptWindow,
    /// The pipelined stage thread's word-level comparison.
    PipelinedCompare,
}

impl ProtocolPhase {
    /// Number of phases (sizes per-phase counter arrays).
    pub const COUNT: usize = 4;

    /// Dense index for per-phase occurrence counters.
    pub fn index(self) -> usize {
        match self {
            ProtocolPhase::BarrierCollect => 0,
            ProtocolPhase::BitmapRound => 1,
            ProtocolPhase::CkptWindow => 2,
            ProtocolPhase::PipelinedCompare => 3,
        }
    }
}

/// A scripted fault: something that happens to one node at a
/// deterministic point in its own event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// After `at_datagram` datagrams have crossed `node`'s wire interface
    /// (sent or received), all of its subsequent traffic in both
    /// directions is dropped: the node is partitioned from the rest of
    /// the cluster but keeps running.  If `heal_at` is set, the partition
    /// is transient: once the node-local datagram count passes `heal_at`
    /// (dropped traffic still advances the count), traffic flows again and
    /// `partitions_healed` is bumped.  A node may carry several
    /// partition/heal windows; overlapping windows union.
    Partition {
        /// The partitioned node.
        node: ProcId,
        /// Node-local wire-datagram count at which the partition begins.
        at_datagram: u64,
        /// Node-local wire-datagram count at which the partition heals;
        /// `None` is a permanent partition.
        heal_at: Option<u64>,
    },
    /// After `node`'s reliability engine has processed `at_event` events
    /// (outbound packets + wire arrivals), the engine halts: channels
    /// close, nothing is delivered or acknowledged — a crashed node.
    Kill {
        /// The killed node.
        node: ProcId,
        /// Node-local engine-event count at which the node dies.
        at_event: u64,
    },
    /// The `at_frame`-th first transmission `node` puts on the wire
    /// (1-based, counting data originals and the first copy of each ACK
    /// and NAK alike) is mutated with `kind` before transmission.  Resent
    /// copies — timer retransmissions, NAK repairs, tail-loss probes,
    /// repeated ACKs and NAKs of one value, injected duplicates — neither
    /// advance the ordinal nor get struck, so the strike lands on the same
    /// frame however the peer's NAKs interleave with the originals.  The
    /// receiver's integrity check rejects it and NAKs the sender.
    CorruptAt {
        /// The node whose outgoing frame is corrupted.
        node: ProcId,
        /// Node-local first-transmission ordinal at which the corruption
        /// strikes.
        at_frame: u64,
        /// The mutation applied.
        kind: CorruptKind,
    },
    /// After `at_datagram` datagrams have crossed `node`'s wire interface,
    /// its engine dwells `dwell` on every subsequent wire arrival — a slow
    /// consumer that drains its receive path far behind its peers' send
    /// rate.  With a finite [`FaultPlan::link_capacity`] the senders'
    /// credit windows close against it (bounded queues, `credit_stalls`
    /// counted); it is the scripted fault proving a stalled peer cannot
    /// exhaust sender memory.
    SlowConsumer {
        /// The slow node.
        node: ProcId,
        /// Node-local wire-datagram count at which the slowdown begins.
        at_datagram: u64,
        /// Processing dwell added per wire arrival from then on.
        dwell: Duration,
    },
    /// `node` dies the `hit`-th time (0-based) it enters protocol window
    /// `phase`.  Opaque to the transport — the reliability engine ignores
    /// this strike entirely; the protocol layer above extracts it from the
    /// plan and inflicts the death itself, so the kill lands at a
    /// deterministic point in the *protocol's* event stream rather than
    /// the wire's.
    KillAtPhase {
        /// The node that dies.
        node: ProcId,
        /// The protocol window the strike fires in.
        phase: ProtocolPhase,
        /// Which entry into the window fires the strike (0-based), so a
        /// test can target a later epoch's pass through the same window.
        hit: u64,
    },
}

impl FaultEvent {
    /// Whether the event is spent once the attempt it struck has failed:
    /// a kill or phase strike has fired (the replacement node must not die
    /// again), and a healing partition window has healed by the time a
    /// retry starts (the retry backoff outlasts the scripted outage).
    pub fn fires_once(&self) -> bool {
        match self {
            FaultEvent::Kill { .. } | FaultEvent::KillAtPhase { .. } => true,
            FaultEvent::Partition { heal_at, .. } => heal_at.is_some(),
            FaultEvent::CorruptAt { .. } | FaultEvent::SlowConsumer { .. } => false,
        }
    }
}

/// Wire fault model: seeded, deterministic fault injection plus the
/// retransmission-policy knobs of the reliability protocol.  A plain
/// Bernoulli loss model is `FaultPlan::new(rate, seed)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability in `[0, 1)` that any single *data* datagram is lost.
    pub drop_rate: f64,
    /// Probability in `[0, 1)` that an ACK or NAK datagram is lost.  Off
    /// by default: which control copies are sent shifts with
    /// retransmission timing (see module docs).
    pub ack_drop_rate: f64,
    /// Probability in `[0, 1)` that a datagram is duplicated on the wire.
    pub dup_rate: f64,
    /// Probability in `[0, 1)` that a datagram is held back and swapped
    /// with the next datagram on the same link (a reordering window of
    /// one; a held datagram with no swap partner is released after half
    /// the shortest timer that could resend it, `min(rto, probe floor)`).
    pub reorder_rate: f64,
    /// Probability in `[0, 1)` that a datagram's bytes are mutated on the
    /// wire (seeded bit-flip, truncation, or garbage tail, chosen per
    /// datagram).  The receiver's frame checksum rejects the damage and
    /// NAKs the sender, so a corrupted datagram costs one round trip.
    pub corrupt_rate: f64,
    /// Seeded per-datagram extra wire delay, uniform in `[min, max]`.
    pub delay: Option<(Duration, Duration)>,
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Retransmission timeout of a flow before its first round-trip
    /// sample, and the floor under its estimate after (doubles per
    /// attempt).  A thirty-second of it floors the tail-loss probe.  With
    /// `max_rto` and `max_retransmits` it also fixes the silence budget,
    /// `Σ_{k=0..=max_retransmits} min(rto·2^k, max_rto)`.
    pub rto: Duration,
    /// Upper bound on the estimated and on the backed-off retransmission
    /// timeout.
    pub max_rto: Duration,
    /// Retransmissions one datagram must spend before its peer can be
    /// declared dead: a floor that the silence budget (see `rto`) joins —
    /// the peer must also have sent nothing valid for that long.  Then a
    /// [`NetEvent::PeerDead`](crate::NetEvent) is delivered instead of
    /// retrying forever.  `u32::MAX` disables death.
    pub max_retransmits: u32,
    /// Per-link credit window: the maximum number of unacknowledged data
    /// datagrams a sender may have in flight to one peer.  Each ACK
    /// returns credits (the cumulative acknowledgement *is* the credit
    /// grant), and packets arriving while the window is closed wait in a
    /// per-flow pending queue (`credit_stalls` counts the waits).
    /// `u32::MAX` is the unbounded-equivalent; the minimum is 1.
    pub link_capacity: u32,
    /// Scripted partition/kill events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A pure Bernoulli loss model with the given rate and seed: a 2 ms
    /// RTO (the floor under each flow's estimate), 64 ms cap, peers
    /// declared dead after 64 retransmissions and ≈ 3.9 s of silence, no
    /// other faults.
    pub fn new(drop_rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&drop_rate), "drop rate out of range");
        FaultPlan {
            drop_rate,
            ack_drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            corrupt_rate: 0.0,
            delay: None,
            seed,
            rto: Duration::from_millis(2),
            max_rto: Duration::from_millis(64),
            max_retransmits: 64,
            link_capacity: u32::MAX,
            events: Vec::new(),
        }
    }

    /// A plan with no faults at all (still runs the reliability protocol).
    pub fn clean(seed: u64) -> Self {
        FaultPlan::new(0.0, seed)
    }

    /// Sets the retransmission timeout (before the first round-trip sample,
    /// and the floor under the estimate after) and the cap on every
    /// timeout.
    #[must_use]
    pub fn with_rto(mut self, rto: Duration, max_rto: Duration) -> Self {
        assert!(max_rto >= rto, "max_rto below initial rto");
        self.rto = rto;
        self.max_rto = max_rto;
        self
    }

    /// Sets the max-retransmit threshold for declaring a peer dead.
    #[must_use]
    pub fn with_max_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    /// Enables ACK and NAK loss at `rate` (see the determinism caveat
    /// above).
    #[must_use]
    pub fn with_ack_loss(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "ack drop rate out of range");
        self.ack_drop_rate = rate;
        self
    }

    /// Enables datagram duplication at `rate`.
    #[must_use]
    pub fn with_duplication(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dup rate out of range");
        self.dup_rate = rate;
        self
    }

    /// Enables pairwise reordering at `rate`.
    #[must_use]
    pub fn with_reordering(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "reorder rate out of range");
        self.reorder_rate = rate;
        self
    }

    /// Enables seeded payload corruption at `rate`: each hit datagram gets
    /// a bit-flip, truncation, or garbage tail (chosen by the same keyed
    /// dice), which the receiver's checksum rejects and NAKs.
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "corrupt rate out of range");
        self.corrupt_rate = rate;
        self
    }

    /// Scripts a `kind` corruption of the `at_frame`-th frame (1-based)
    /// that `node` puts on the wire.
    #[must_use]
    pub fn with_corrupt_at(mut self, node: ProcId, at_frame: u64, kind: CorruptKind) -> Self {
        assert!(at_frame >= 1, "frame ordinals are 1-based");
        self.events.push(FaultEvent::CorruptAt {
            node,
            at_frame,
            kind,
        });
        self
    }

    /// Adds a seeded per-datagram delay, uniform in `[min, max]`.
    #[must_use]
    pub fn with_delay(mut self, min: Duration, max: Duration) -> Self {
        assert!(max >= min, "delay range inverted");
        self.delay = Some((min, max));
        self
    }

    /// Scripts a permanent partition of `node` at its `at_datagram`-th
    /// wire datagram.
    #[must_use]
    pub fn with_partition(mut self, node: ProcId, at_datagram: u64) -> Self {
        self.events.push(FaultEvent::Partition {
            node,
            at_datagram,
            heal_at: None,
        });
        self
    }

    /// Scripts a transient partition of `node`: traffic stops after its
    /// `at_datagram`-th wire datagram and flows again once the node-local
    /// count passes `heal_at` (dropped datagrams still advance the count,
    /// keeping the heal keyed into the same deterministic stream).
    #[must_use]
    pub fn with_partition_healed(mut self, node: ProcId, at_datagram: u64, heal_at: u64) -> Self {
        assert!(
            heal_at > at_datagram,
            "heal point not after partition start"
        );
        self.events.push(FaultEvent::Partition {
            node,
            at_datagram,
            heal_at: Some(heal_at),
        });
        self
    }

    /// Scripts the death of `node` at its `at_event`-th engine event.
    #[must_use]
    pub fn with_kill(mut self, node: ProcId, at_event: u64) -> Self {
        self.events.push(FaultEvent::Kill { node, at_event });
        self
    }

    /// Scripts the death of `node` the `hit`-th time (0-based) it enters
    /// protocol window `phase`.  The transport carries but ignores the
    /// strike; the protocol layer interprets it.
    #[must_use]
    pub fn with_kill_at_phase(mut self, node: ProcId, phase: ProtocolPhase, hit: u64) -> Self {
        self.events
            .push(FaultEvent::KillAtPhase { node, phase, hit });
        self
    }

    /// Bounds every link's in-flight window to `capacity` datagrams
    /// (credit-based flow control; minimum 1).
    #[must_use]
    pub fn with_link_capacity(mut self, capacity: u32) -> Self {
        assert!(capacity >= 1, "link capacity below 1 cannot make progress");
        self.link_capacity = capacity;
        self
    }

    /// Scripts a slow consumer: from its `at_datagram`-th wire datagram
    /// on, `node`'s engine dwells `dwell` per wire arrival.
    #[must_use]
    pub fn with_slow_consumer(mut self, node: ProcId, at_datagram: u64, dwell: Duration) -> Self {
        self.events.push(FaultEvent::SlowConsumer {
            node,
            at_datagram,
            dwell,
        });
        self
    }

    /// Disarms every event that [fires once](FaultEvent::fires_once) and
    /// returns how many partition windows that heals (each counted here,
    /// once, because the engine that would have seen it heal is gone).
    pub fn strip_fired(&mut self) -> u64 {
        let healed = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::Partition { .. }) && e.fires_once())
            .count() as u64;
        self.events.retain(|e| !e.fires_once());
        healed
    }

    /// Whether the plan partitions `target`'s interface at any point.
    pub fn cuts(&self, target: ProcId) -> bool {
        self.events
            .iter()
            .any(|e| matches!(*e, FaultEvent::Partition { node, .. } if node == target))
    }

    /// The `(phase, hit)` strikes the plan aims at `target`.
    pub fn phase_strikes(&self, target: ProcId) -> Vec<(ProtocolPhase, u64)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::KillAtPhase { node, phase, hit } if node == target => {
                    Some((phase, hit))
                }
                _ => None,
            })
            .collect()
    }
}

crate::counters! {
    /// Point-in-time copy of every [`ReliabilityStats`] counter.  The
    /// unmarked ones repeat for one `(plan, seed)` on a wire that loses,
    /// corrupts, delays and reorders nothing, while no timer fires; once a
    /// datagram is lost the timer and NAK paths, and the injected fates of
    /// the copies they send, race the wall clock.
    pub struct ReliabilitySnapshot {
        /// Data datagrams dropped by the simulated wire.
        pub wire_drops: u64,
        /// ACK and NAK datagrams dropped by the simulated wire.
        pub ack_drops: u64,
        /// Data retransmissions fired by the retransmission timer.
        pub retransmissions: u64,
        /// NAKs sent by receivers (for damaged frames and sequence gaps).
        pub naks: u64,
        /// Data datagrams resent in answer to a NAK.
        pub repairs: u64,
        /// Tail-loss probes: a flow's newest unacknowledged datagram resent
        /// because no ACK advanced within the probe timeout.
        #[timing]
        pub probes: u64,
        /// Duplicate data datagrams suppressed at receivers.
        pub duplicates: u64,
        /// Duplicate datagrams injected by the fault plan.
        pub dup_injected: u64,
        /// Datagrams held back by the seeded delay distribution.
        pub delayed: u64,
        /// Datagrams swapped by the reordering window.
        pub reordered: u64,
        /// Datagrams dropped because the sender was partitioned or the peer
        /// already declared dead.
        pub partition_drops: u64,
        /// Scripted partition windows that reached their heal point and let
        /// traffic flow again.
        pub partitions_healed: u64,
        /// Datagrams lost because the peer's wire endpoint had closed
        /// (shutdown in progress) — distinguishable from wire loss.
        #[timing]
        pub peer_closed: u64,
        /// Peers declared dead after spending the retransmit budget in
        /// silence.
        pub peers_declared_dead: u64,
        /// Frames mutated by the fault plan before transmission.
        pub corrupt_injected: u64,
        /// Received frames dropped by the integrity check (bad magic, length,
        /// or checksum) — each answered with a NAK to its sender.
        pub corrupt_dropped: u64,
        /// Frames whose checksum verified but whose body failed structural
        /// decode/validation (malformed datagram, out-of-range process id);
        /// quarantined rather than delivered.
        pub decode_errors: u64,
    }
    /// Counters kept by the reliability layer, and beside them the gauges
    /// and timing-dependent counts [`ReliabilitySnapshot`] leaves out.
    atomic pub struct ReliabilityStats {
        /// Outbound packets that found their link's credit window closed and
        /// waited in the pending queue.  Timing-dependent: how often a window
        /// is momentarily full depends on scheduling.
        pub credit_stalls: AtomicU64,
        /// Deepest any flow's in-flight (unacknowledged) window ever got —
        /// bounded by [`FaultPlan::link_capacity`] by construction.  Also
        /// timing-dependent.
        pub queue_high_water: AtomicU64,
        /// In-order packets handed to application endpoints.  Progress signal
        /// for the overload watchdog; timing-dependent totals only matter as
        /// "changed since last look".
        pub delivered: AtomicU64,
        /// Gauge: flows currently credit-stalled (non-empty pending queue)
        /// across all engines.  Non-zero here plus no delivery progress is the
        /// watchdog's credit-deadlock signature.
        pub credit_stalled_now: AtomicU64,
        /// Deepest any transport channel (engine inbox, delivery) ever got,
        /// shared by the fabric's metered links.
        link_high_water: Arc<AtomicU64>,
    }
}

impl ReliabilityStats {
    /// Deepest any of the fabric's channel queues ever got, in messages.
    pub fn link_high_water(&self) -> u64 {
        self.link_high_water.load(Ordering::Relaxed)
    }

    /// The shared gauge the fabric's metered links feed.
    pub(crate) fn link_gauge(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.link_high_water)
    }
}

/// One datagram on the simulated wire.
#[derive(Clone, Debug, PartialEq)]
enum Dgram {
    Data {
        flow_src: ProcId,
        seq: u64,
        packet: Packet,
    },
    /// Cumulative acknowledgement: all data with `seq <= upto` received.
    Ack { flow_dst: ProcId, upto: u64 },
    /// Negative acknowledgement: the ACK of `upto`, plus "something of
    /// yours above it was lost or damaged — resend".
    Nak { flow_dst: ProcId, upto: u64 },
}

// Datagrams cross the simulated wire as bytes inside a checksummed frame
// (so the fault plan can corrupt them like a real physical layer); this is
// their body encoding.
crate::wire! {
    enum Dgram {
        Data { flow_src, seq, packet } = 0,
        Ack { flow_dst, upto } = 1,
        Nak { flow_dst, upto } = 2,
    }
}

impl Dgram {
    /// Structural validation after a successful decode: a frame can pass
    /// the checksum and still (through forgery or a stale peer) name
    /// processes outside this cluster, which would index out of range in
    /// the flow tables.  `n` is the cluster size.
    fn structurally_valid(&self, n: usize) -> bool {
        match self {
            Dgram::Data {
                flow_src, packet, ..
            } => flow_src.index() < n && packet.src.index() < n && packet.dst.index() < n,
            Dgram::Ack { flow_dst, .. } | Dgram::Nak { flow_dst, .. } => flow_dst.index() < n,
        }
    }
}

/// Applies one deterministic mutation to a frame.  `roll` is a keyed hash
/// value supplying every random choice (bit position, cut point, tail
/// bytes), so the same `(plan, seed, frame identity)` always produces the
/// same damage.
fn apply_corruption(frame: &mut Vec<u8>, kind: CorruptKind, roll: u64) {
    match kind {
        CorruptKind::BitFlip => {
            let bit = (roll % (frame.len() as u64 * 8)) as usize;
            frame[bit / 8] ^= 1 << (bit % 8);
        }
        CorruptKind::Truncate => {
            let keep = (roll % frame.len() as u64) as usize;
            frame.truncate(keep);
        }
        CorruptKind::GarbageTail => {
            let extra = 1 + (roll % 16) as usize;
            for i in 0..extra {
                frame.push((roll >> (8 * (i % 8))) as u8);
            }
        }
    }
}

/// One unacknowledged data datagram.
struct Unacked {
    seq: u64,
    packet: Packet,
    /// When the original copy was sent: the start of its round-trip
    /// sample and of the silence its peer is measured by.
    sent: Instant,
    /// Timer retransmissions performed so far: the backoff exponent and
    /// the death budget.  NAK repairs and probes never advance it.
    attempts: u32,
    /// NAK repairs and probes performed so far (the repair ordinal in each
    /// such copy's dice key; never reset).
    repairs: u32,
    /// Whether a NAK has repaired it since its last timer (re)transmission:
    /// the one-repair-per-timer-period limit that bounds NAK cascades.
    repaired: bool,
    /// When the next retransmission is due.
    due: Instant,
}

/// Dice key of one data copy: the timer attempt, and the repair ordinal
/// (0 for the original and for timer retransmissions).
fn copy_key(attempt: u32, repair: u32) -> u64 {
    u64::from(attempt) | (u64::from(repair) << 32)
}

/// However short its round trips, a flow's probe timeout never drops
/// below `max(PROBE_FLOOR, rto / PROBE_FLOOR_DIV)`: a healthy peer's
/// engine can wait that long for a core on a loaded host, and a plan whose
/// `rto` is sized against longer host stalls keeps a probe that outlasts
/// them.
const PROBE_FLOOR: Duration = Duration::from_micros(200);
const PROBE_FLOOR_DIV: u32 = 32;

fn probe_floor(plan: &FaultPlan) -> Duration {
    PROBE_FLOOR.max(plan.rto / PROBE_FLOOR_DIV)
}

/// One flow's smoothed round-trip estimate (RFC 6298 §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rtt {
    srtt: Duration,
    rttvar: Duration,
}

impl Rtt {
    /// The estimate after the first sample `r`.
    fn first(r: Duration) -> Self {
        Rtt {
            srtt: r,
            rttvar: r / 2,
        }
    }

    /// Folds in a later sample `r` (α = 1/8, β = 1/4).
    fn update(&mut self, r: Duration) {
        let err = self.srtt.abs_diff(r);
        self.rttvar = self.rttvar * 3 / 4 + err / 4;
        self.srtt = self.srtt * 7 / 8 + r / 8;
    }

    /// `SRTT + 4·RTTVAR`, clamped to `[rto, max_rto]`.
    fn rto(&self, plan: &FaultPlan) -> Duration {
        (self.srtt + self.rttvar * 4)
            .max(plan.rto)
            .min(plan.max_rto)
    }

    /// How long a flow's newest datagram waits for an ACK to move before
    /// it is probed: `max(2·SRTT, probe floor)`.
    fn probe_timeout(&self, plan: &FaultPlan) -> Duration {
        (self.srtt * 2).max(probe_floor(plan))
    }
}

/// A flow's tail-loss probe: one per ACK advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probe {
    /// Not armed; the next new datagram arms it.
    Ready,
    /// Due at this instant.
    Armed(Instant),
    /// Sent since the last ACK advance.
    Spent,
}

impl Probe {
    fn deadline(self) -> Option<Instant> {
        match self {
            Probe::Armed(at) => Some(at),
            Probe::Ready | Probe::Spent => None,
        }
    }
}

/// Sending-half state for one flow (this node → one peer).
struct FlowTx {
    next_seq: u64,
    unacked: Vec<Unacked>,
    /// Packets waiting for the credit window to reopen.  Retransmissions
    /// never queue here — a retransmitted datagram already holds a credit
    /// (it sits in `unacked`), which is what keeps a lossy capacity-1 link
    /// from deadlocking.
    pending: VecDeque<Packet>,
    /// Round-trip estimate; `None` until the first sample.
    rtt: Option<Rtt>,
    probe: Probe,
    /// When the last valid frame (data, ACK or NAK) arrived from the peer.
    heard: Instant,
}

impl FlowTx {
    fn new() -> Self {
        FlowTx {
            next_seq: 1,
            unacked: Vec::new(),
            pending: VecDeque::new(),
            rtt: None,
            probe: Probe::Ready,
            heard: Instant::now(),
        }
    }

    /// The un-backed-off timeout: the estimate, or `plan.rto` before the
    /// first sample.
    fn base_rto(&self, plan: &FaultPlan) -> Duration {
        self.rtt.map_or(plan.rto, |r| r.rto(plan))
    }

    /// Arms the probe `now`, unless it is spent or there is no estimate
    /// to time it by.
    fn arm_probe(&mut self, now: Instant, plan: &FaultPlan) {
        if let (Some(rtt), false) = (self.rtt, self.probe == Probe::Spent) {
            self.probe = Probe::Armed(now + rtt.probe_timeout(plan));
        }
    }
}

/// Receiving-half state for one flow (one peer → this node).
struct FlowRx {
    /// Next in-order sequence number expected.
    expected: u64,
    /// Out-of-order buffer.
    buffer: HashMap<u64, Packet>,
    /// The `expected` value the last gap NAK asked for: a gap is NAKed
    /// once, however many later datagrams show it.
    gap_naked: u64,
    /// Copy ordinals of the ACKs and NAKs sent for this flow.
    acks: CopyCount,
    naks: CopyCount,
}

impl FlowRx {
    fn new() -> Self {
        FlowRx {
            expected: 1,
            buffer: HashMap::new(),
            gap_naked: 0,
            acks: CopyCount::default(),
            naks: CopyCount::default(),
        }
    }
}

/// How many copies of one cumulative value a control stream has sent.
/// The value only grows, so the last one and its count identify every
/// copy.
#[derive(Default)]
struct CopyCount {
    upto: u64,
    copies: u64,
}

impl CopyCount {
    /// The 0-based ordinal of the next copy of `upto`.
    fn next(&mut self, upto: u64) -> u64 {
        if upto != self.upto {
            *self = CopyCount { upto, copies: 0 };
        }
        self.copies += 1;
        self.copies - 1
    }
}

/// Decision tags feeding the keyed fault hash (distinct streams per kind).
const TAG_DATA_DROP: u64 = 0xD1;
const TAG_ACK_DROP: u64 = 0xD2;
const TAG_DUP: u64 = 0xD3;
const TAG_REORDER: u64 = 0xD4;
const TAG_DELAY: u64 = 0xD5;
const TAG_JITTER: u64 = 0xD6;
/// Whether a frame is corrupted at all.
const TAG_CORRUPT: u64 = 0xD7;
/// Which mutation a corrupted frame receives, and where it lands.
const TAG_CORRUPT_KIND: u64 = 0xD8;
/// NAK loss (at the ACK drop rate) and every other decision on a NAK.
const TAG_NAK: u64 = 0xD9;

/// Deterministic per-datagram fault dice: a splitmix64-style hash of the
/// seed and the datagram identity, so decisions never depend on wall-clock
/// time or on the order faults are evaluated in.
#[derive(Clone, Copy)]
struct FaultDice {
    seed: u64,
}

impl FaultDice {
    fn mix(&self, tag: u64, a: u64, b: u64, c: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(c.wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Two splitmix64 finalizer rounds.
        for _ in 0..2 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
        }
        z
    }

    fn hit(&self, tag: u64, a: u64, b: u64, c: u64, threshold: u64) -> bool {
        threshold > 0 && self.mix(tag, a, b, c) < threshold
    }
}

fn threshold(rate: f64) -> u64 {
    (rate * u64::MAX as f64) as u64
}

/// `min(base << attempt, max_rto)`.
fn backed_off(base: Duration, attempt: u32, max_rto: Duration) -> Duration {
    let backed = (base.as_nanos() as u64).saturating_shl(attempt.min(20));
    Duration::from_nanos(backed).min(max_rto)
}

/// Backed-off, jittered retransmission timeout for timer attempt
/// `attempt` from the flow's un-backed-off timeout `base`:
/// [`backed_off`] plus a deterministic jitter of up to 25% of `base`
/// (keyed per `(peer, seq, attempt)`).
fn rto_for(
    base: Duration,
    max_rto: Duration,
    dice: FaultDice,
    dst: ProcId,
    seq: u64,
    attempt: u32,
) -> Duration {
    let jitter = (base.as_nanos() as u64 / 4)
        .wrapping_mul(dice.mix(TAG_JITTER, dst.0 as u64, seq, u64::from(attempt)) & 0xFF)
        / 256;
    backed_off(base, attempt, max_rto) + Duration::from_nanos(jitter)
}

/// How long a peer must stay silent before it can be declared dead: what
/// the fixed schedule takes to spend the retransmit budget,
/// `Σ_{k=0..=max_retransmits} min(rto·2^k, max_rto)` (jitter aside).
fn silence_budget(plan: &FaultPlan) -> Duration {
    let mut total = Duration::ZERO;
    for k in 0..=plan.max_retransmits {
        let step = backed_off(plan.rto, k, plan.max_rto);
        if step == plan.max_rto || k >= 20 {
            // Every later term equals this one.
            let rest = (plan.max_retransmits - k).saturating_add(1);
            return total.saturating_add(step.checked_mul(rest).unwrap_or(Duration::MAX));
        }
        total += step;
    }
    total
}

/// SplitMix64 finalizer, the mixing step of the dice above on its own: one
/// u64 in, one well-mixed u64 out.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pause before retry `attempt` (1-based) of whatever `seed`
/// identifies — a cluster's recovery attempt, a job's re-run: exponential
/// from 1 ms, capped at 64 ms, minus up to half a step of seeded jitter so
/// co-failing runs do not retry in lockstep.
pub fn backoff_delay(attempt: u64, seed: u64) -> Duration {
    const CAP_MS: u64 = 64;
    let step_ms = (1u64 << attempt.saturating_sub(1).min(6)).min(CAP_MS);
    let jitter_us =
        splitmix64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (step_ms * 500);
    Duration::from_micros(step_ms * 1000 - jitter_us)
}

/// Everything a reliability engine waits for, on one inbox.
pub(crate) enum EngineIn {
    /// A new packet from one of this node's senders.
    Outbound(ProcId, Packet),
    /// A frame off the faulty wire and the node that sent it.  The frame
    /// is encoded, checksummed bytes, not a structure, so the fault plan
    /// can corrupt it like a real physical layer; the sender is the
    /// datagram's source address as `recvfrom` reports it, outside the
    /// bytes the checksum covers, so it names whom to NAK even when the
    /// bytes are damaged.
    Wire(ProcId, Vec<u8>),
    /// The node's last sender is gone: drain, then exit.  Not an engine
    /// event — [`FaultEvent::Kill`] ordinals count packets and frames only.
    OutboundClosed,
}

/// A node's sending side as its [`NetSender`](crate::NetSender)s share it.
/// Dropping the last clone posts [`EngineIn::OutboundClosed`] behind
/// everything already sent, which is how the engine learns that no further
/// outbound packet can arrive.
pub(crate) struct Outbound {
    inbox: LinkTx<EngineIn>,
}

impl Outbound {
    pub(crate) fn send(&self, dst: ProcId, packet: Packet) -> Result<(), NetError> {
        self.inbox
            .send(EngineIn::Outbound(dst, packet))
            .map_err(|_| NetError::Disconnected)
    }
}

impl Drop for Outbound {
    fn drop(&mut self) {
        // An engine that already exited (killed, or drained) needs no notice.
        let _ = self.inbox.send(EngineIn::OutboundClosed);
    }
}

/// Per-node reliability engine, run on its own thread.
pub(crate) struct ReliabilityEngine {
    node: ProcId,
    /// Every node's inbox, this one's included: the faulty wire.
    wire_txs: Vec<LinkTx<EngineIn>>,
    /// Outbound packets, wire arrivals and the close notice, in arrival
    /// order.
    inbox: LinkRx<EngineIn>,
    /// In-order delivery (and peer-death events) to the application
    /// endpoint.
    deliver_tx: LinkTx<NetEvent>,
    plan: FaultPlan,
    /// Credit window: max unacknowledged data datagrams per flow
    /// (`max(1, plan.link_capacity)`).
    window: u64,
    /// Scripted slow-consumer trigger for this node: `(at_datagram,
    /// dwell)`.
    slow: Option<(u64, Duration)>,
    dice: FaultDice,
    /// Precomputed Bernoulli thresholds.
    drop_t: u64,
    ack_drop_t: u64,
    dup_t: u64,
    reorder_t: u64,
    corrupt_t: u64,
    /// Precomputed delay range in nanoseconds `(min, span)`.
    delay_ns: Option<(u64, u64)>,
    /// Scripted partition windows for *this* node: `(start, heal,
    /// heal_counted)` in node-local wire-datagram counts.  *Every*
    /// `Partition` event in the plan lands here (not just the first), so
    /// a node can partition, heal, and partition again.
    partitions: Vec<(u64, Option<u64>, bool)>,
    kill_at: Option<u64>,
    /// Scripted corruption points: `(first-transmission ordinal,
    /// mutation)`.
    corrupt_at: Vec<(u64, CorruptKind)>,
    /// Node-local counters driving the scripted events.
    wire_sends: u64,
    events_handled: u64,
    /// First transmissions this node has put on the wire (drives
    /// [`Self::corrupt_at`]).
    first_sends: u64,
    partitioned: bool,
    killed: bool,
    /// Peers declared dead (retransmit budget spent in silence).
    dead: HashSet<ProcId>,
    /// [`silence_budget`] of the plan.
    silence: Duration,
    /// Frames held back by the delay distribution, with their release
    /// times.
    delayed: Vec<(Instant, ProcId, Vec<u8>)>,
    /// Per-destination reordering holdback slot: the held frame and when
    /// it is released if no swap partner turns up.
    holdback: HashMap<ProcId, (Instant, Vec<u8>)>,
    stats: Arc<ReliabilityStats>,
    tx_flows: HashMap<ProcId, FlowTx>,
    rx_flows: HashMap<ProcId, FlowRx>,
}

impl ReliabilityEngine {
    /// Node `me`'s engine under `plan`, reading `inbox` and writing the
    /// wire through `wire_txs` (indexed by node) and deliveries to
    /// `deliver_tx`.
    fn new(
        me: ProcId,
        plan: &FaultPlan,
        wire_txs: Vec<LinkTx<EngineIn>>,
        inbox: LinkRx<EngineIn>,
        deliver_tx: LinkTx<NetEvent>,
        stats: Arc<ReliabilityStats>,
    ) -> Self {
        // *Every* partition window scripted for this node, not just the
        // first: a node may partition, heal and partition again.
        let partitions = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Partition {
                    node,
                    at_datagram,
                    heal_at,
                } if node == me => Some((at_datagram, heal_at, false)),
                _ => None,
            })
            .collect();
        let slow = plan.events.iter().find_map(|e| match *e {
            FaultEvent::SlowConsumer {
                node,
                at_datagram,
                dwell,
            } if node == me => Some((at_datagram, dwell)),
            _ => None,
        });
        let kill_at = plan.events.iter().find_map(|e| match *e {
            FaultEvent::Kill { node, at_event } if node == me => Some(at_event),
            _ => None,
        });
        let corrupt_at = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CorruptAt {
                    node,
                    at_frame,
                    kind,
                } if node == me => Some((at_frame, kind)),
                _ => None,
            })
            .collect();
        ReliabilityEngine {
            node: me,
            wire_txs,
            inbox,
            deliver_tx,
            dice: FaultDice {
                seed: plan.seed ^ (me.index() as u64).wrapping_mul(0x1234_5677),
            },
            drop_t: threshold(plan.drop_rate),
            ack_drop_t: threshold(plan.ack_drop_rate),
            dup_t: threshold(plan.dup_rate),
            reorder_t: threshold(plan.reorder_rate),
            corrupt_t: threshold(plan.corrupt_rate),
            delay_ns: plan
                .delay
                .map(|(min, max)| (min.as_nanos() as u64, (max - min).as_nanos() as u64)),
            window: u64::from(plan.link_capacity.max(1)),
            slow,
            partitions,
            kill_at,
            corrupt_at,
            wire_sends: 0,
            events_handled: 0,
            first_sends: 0,
            partitioned: false,
            killed: false,
            dead: HashSet::new(),
            silence: silence_budget(plan),
            delayed: Vec::new(),
            holdback: HashMap::new(),
            stats,
            tx_flows: HashMap::new(),
            rx_flows: HashMap::new(),
            plan: plan.clone(),
        }
    }

    /// Notes one engine event (an outbound packet or a wire arrival);
    /// returns `true` once the scripted kill point has been reached, in
    /// which case the event is not handled.
    fn note_event(&mut self) -> bool {
        self.events_handled += 1;
        if let Some(k) = self.kill_at {
            if self.events_handled >= k {
                self.killed = true;
            }
        }
        self.killed
    }

    /// Counts one datagram crossing this node's wire interface (either
    /// direction) and recomputes the partitioned state from the scripted
    /// windows: inside any un-healed window the node is cut off; past a
    /// window's heal point traffic flows again (counted once per window).
    /// Dropped datagrams advance the count too, so heal points stay keyed
    /// to the same deterministic node-local stream as partition starts.
    fn note_wire_dgram(&mut self) {
        self.wire_sends += 1;
        let mut inside = false;
        for w in &mut self.partitions {
            if self.wire_sends <= w.0 {
                continue;
            }
            match w.1 {
                Some(heal) if self.wire_sends > heal => {
                    if !w.2 {
                        w.2 = true;
                        self.stats.partitions_healed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => inside = true,
            }
        }
        self.partitioned = inside;
    }

    /// Encodes one wire copy of `dgram` into a checksummed frame and
    /// applies any injected corruption: on a first transmission, a
    /// scripted [`FaultEvent::CorruptAt`] matching this node-local
    /// first-transmission ordinal wins; otherwise the keyed `corrupt_rate`
    /// dice.  Every physical copy (original, injected duplicate,
    /// retransmission, repair) is framed separately, so each gets an
    /// independent corruption decision — just like a real wire.
    ///
    /// Copy key `b == 0` is a first transmission: a data original
    /// ([`copy_key`]`(0, 0)`) or the first copy of an ACK or NAK value
    /// ([`CopyCount`]).  An injected duplicate is keyed `b + 1`, so it
    /// never is.
    fn frame_for(&mut self, dst: ProcId, dgram: &Dgram, tag: u64, a: u64, b: u64) -> Vec<u8> {
        let mut frame = encode_framed(dgram);
        let scripted = if b == 0 {
            self.first_sends += 1;
            let ordinal = self.first_sends;
            self.corrupt_at
                .iter()
                .find(|(at, _)| *at == ordinal)
                .map(|&(_, k)| k)
        } else {
            None
        };
        let kind = scripted.or_else(|| {
            if self
                .dice
                .hit(TAG_CORRUPT, dst.0 as u64 ^ tag, a, b, self.corrupt_t)
            {
                Some(
                    match self.dice.mix(TAG_CORRUPT, dst.0 as u64 ^ tag, a, b) % 3 {
                        0 => CorruptKind::BitFlip,
                        1 => CorruptKind::Truncate,
                        _ => CorruptKind::GarbageTail,
                    },
                )
            } else {
                None
            }
        });
        if let Some(kind) = kind {
            let roll = self.dice.mix(TAG_CORRUPT_KIND, dst.0 as u64 ^ tag, a, b);
            apply_corruption(&mut frame, kind, roll);
            self.stats.corrupt_injected.fetch_add(1, Ordering::Relaxed);
        }
        frame
    }

    /// Injects one datagram into the faulty wire: partition/death gates,
    /// then the keyed drop/dup/corrupt/delay/reorder decisions, then the
    /// raw send.
    fn inject(&mut self, dst: ProcId, dgram: &Dgram, tag: u64, a: u64, b: u64) {
        self.note_wire_dgram();
        if self.partitioned || self.dead.contains(&dst) {
            self.stats.partition_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (drop_t, drop_ctr) = if tag == TAG_DATA_DROP {
            (self.drop_t, &self.stats.wire_drops)
        } else {
            (self.ack_drop_t, &self.stats.ack_drops)
        };
        if self.dice.hit(tag, dst.0 as u64, a, b, drop_t) {
            drop_ctr.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.dice.hit(TAG_DUP, dst.0 as u64 ^ tag, a, b, self.dup_t) {
            self.stats.dup_injected.fetch_add(1, Ordering::Relaxed);
            let dup = self.frame_for(dst, dgram, tag, a, b.wrapping_add(1));
            self.enqueue(dst, dup, tag, a, b.wrapping_add(1));
        }
        let frame = self.frame_for(dst, dgram, tag, a, b);
        if let Some((min_ns, span_ns)) = self.delay_ns {
            let extra = if span_ns == 0 {
                min_ns
            } else {
                min_ns + self.dice.mix(TAG_DELAY, dst.0 as u64 ^ tag, a, b) % (span_ns + 1)
            };
            if extra > 0 {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.delayed
                    .push((Instant::now() + Duration::from_nanos(extra), dst, frame));
                return;
            }
        }
        self.enqueue(dst, frame, tag, a, b);
    }

    /// Final emission stage: the pairwise reordering window, then the raw
    /// channel send.
    fn enqueue(&mut self, dst: ProcId, frame: Vec<u8>, tag: u64, a: u64, b: u64) {
        if let Some((_, held)) = self.holdback.remove(&dst) {
            // Swap: the newer frame overtakes the held one.
            self.raw_send(dst, frame);
            self.raw_send(dst, held);
            return;
        }
        if self
            .dice
            .hit(TAG_REORDER, dst.0 as u64 ^ tag, a, b, self.reorder_t)
        {
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            let release = Instant::now() + self.holdback_window();
            self.holdback.insert(dst, (release, frame));
            return;
        }
        self.raw_send(dst, frame);
    }

    /// How long a held datagram waits for a swap partner: half the
    /// shortest timer that could resend it — the probe floor, or `rto` if
    /// that is shorter — so the reordering is over before a probe or the
    /// retransmit timer could mask it.
    fn holdback_window(&self) -> Duration {
        probe_floor(&self.plan).min(self.plan.rto) / 2
    }

    fn raw_send(&self, dst: ProcId, frame: Vec<u8>) {
        // A closed peer means shutdown is in progress; count it so
        // shutdown loss is distinguishable from wire loss.
        if self.wire_txs[dst.index()]
            .send(EngineIn::Wire(self.node, frame))
            .is_err()
        {
            self.stats.peer_closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Puts one copy of data datagram `seq` on the wire; `key` is the
    /// copy's [`copy_key`].
    fn send_data(&mut self, dst: ProcId, seq: u64, key: u64, packet: Packet) {
        let dgram = Dgram::Data {
            flow_src: self.node,
            seq,
            packet,
        };
        self.inject(dst, &dgram, TAG_DATA_DROP, seq, key);
    }

    /// The receiving half of the flow from `src`, created on first use.
    fn rx_flow(&mut self, src: ProcId) -> &mut FlowRx {
        self.rx_flows.entry(src).or_insert_with(FlowRx::new)
    }

    /// Acknowledges `src`'s flow cumulatively; each copy of one `upto` is
    /// keyed by its own ordinal, so a lost ACK does not doom its re-sends.
    fn send_ack(&mut self, src: ProcId, upto: u64) {
        let copy = self.rx_flow(src).acks.next(upto);
        let dgram = Dgram::Ack {
            flow_dst: self.node,
            upto,
        };
        self.inject(src, &dgram, TAG_ACK_DROP, upto, copy);
    }

    /// Asks `src` to repair its flow above `upto` (keyed like an ACK).
    fn send_nak(&mut self, src: ProcId, upto: u64) {
        self.stats.naks.fetch_add(1, Ordering::Relaxed);
        let copy = self.rx_flow(src).naks.next(upto);
        let dgram = Dgram::Nak {
            flow_dst: self.node,
            upto,
        };
        self.inject(src, &dgram, TAG_NAK, upto, copy);
    }

    fn handle_outbound(&mut self, dst: ProcId, packet: Packet) {
        if self.note_event() {
            return;
        }
        if self.dead.contains(&dst) {
            // Nobody is left to acknowledge it.  Kept, it would outlive its
            // own retransmit budget (a peer is declared dead only once, and
            // that is when its flow is cleared): the engine could never
            // drain, and the expired `due` would have it wake without pause.
            self.stats.partition_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let window = self.window;
        let flow = self.tx_flows.entry(dst).or_insert_with(FlowTx::new);
        // Credit gate: a packet may only enter the wire while the flow
        // holds a free credit, and never ahead of earlier stalled packets.
        if (flow.unacked.len() as u64) < window && flow.pending.is_empty() {
            self.admit(dst, packet);
        } else {
            if flow.pending.is_empty() {
                self.stats
                    .credit_stalled_now
                    .fetch_add(1, Ordering::Relaxed);
            }
            flow.pending.push_back(packet);
            self.stats.credit_stalls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consumes one credit for `dst` and puts `packet` on the wire.  The
    /// caller guarantees a credit is free, making the in-flight window —
    /// and therefore `queue_high_water` — at most the configured capacity
    /// by construction.
    fn admit(&mut self, dst: ProcId, packet: Packet) {
        let now = Instant::now();
        let flow = self.tx_flows.get_mut(&dst).expect("flow exists");
        let seq = flow.next_seq;
        flow.next_seq += 1;
        let base = flow.base_rto(&self.plan);
        flow.unacked.push(Unacked {
            seq,
            packet: packet.clone(),
            sent: now,
            attempts: 0,
            repairs: 0,
            repaired: false,
            due: now + rto_for(base, self.plan.max_rto, self.dice, dst, seq, 0),
        });
        flow.arm_probe(now, &self.plan);
        let inflight = flow.unacked.len() as u64;
        debug_assert!(inflight <= self.window, "credit window overrun");
        self.stats
            .queue_high_water
            .fetch_max(inflight, Ordering::Relaxed);
        self.send_data(dst, seq, copy_key(0, 0), packet);
    }

    /// Spends credits freed by an ACK on the flow's stalled packets, in
    /// arrival order.
    fn admit_pending(&mut self, dst: ProcId) {
        let Some(flow) = self.tx_flows.get_mut(&dst) else {
            return;
        };
        if flow.pending.is_empty() {
            return;
        }
        while let Some(flow) = self.tx_flows.get_mut(&dst) {
            if flow.pending.is_empty() || flow.unacked.len() as u64 >= self.window {
                break;
            }
            let packet = flow.pending.pop_front().expect("checked non-empty");
            self.admit(dst, packet);
        }
        let drained = match self.tx_flows.get(&dst) {
            Some(flow) => flow.pending.is_empty(),
            None => true,
        };
        if drained {
            self.stats
                .credit_stalled_now
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn handle_wire(&mut self, src: ProcId, frame: Vec<u8>) {
        if self.note_event() {
            return;
        }
        self.note_wire_dgram();
        // Scripted slow consumer: dwell on every arrival past the trigger.
        // The dwell sits *before* the ACK is produced, so peers see their
        // credits come back late — the overload this fault exists to model.
        if let Some((at, dwell)) = self.slow {
            if self.wire_sends > at {
                std::thread::sleep(dwell);
            }
        }
        if self.partitioned {
            // A partitioned node hears nothing either.
            self.stats.partition_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Trust boundary: the wire delivered bytes, nothing more.  A frame
        // that fails the magic/length/checksum gate is dropped and NAKed
        // to its source address (which the damage cannot reach); one that
        // passes the checksum but decodes to a malformed or out-of-range
        // datagram was not damaged in transit — a resend would carry the
        // same bytes — so it is quarantined, unanswered.
        let body = match decode_frame(&frame) {
            Ok(body) => body,
            Err(_) => {
                self.stats.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                if !self.dead.contains(&src) {
                    let upto = self.rx_flow(src).expected - 1;
                    self.send_nak(src, upto);
                }
                return;
            }
        };
        let dgram = match Dgram::from_bytes(body) {
            Ok(d) => d,
            Err(_) => {
                self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if !dgram.structurally_valid(self.wire_txs.len()) {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(flow) = self.tx_flows.get_mut(&src) {
            flow.heard = Instant::now();
        }
        match dgram {
            Dgram::Data {
                flow_src,
                seq,
                packet,
            } => {
                let flow = self.rx_flows.entry(flow_src).or_insert_with(FlowRx::new);
                if seq < flow.expected || flow.buffer.contains_key(&seq) {
                    self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                } else {
                    flow.buffer.insert(seq, packet);
                    while let Some(pkt) = flow.buffer.remove(&flow.expected) {
                        flow.expected += 1;
                        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                        // The application endpoint outliving us is not
                        // required during shutdown.
                        let _ = self.deliver_tx.send(NetEvent::Packet(pkt));
                    }
                }
                // (Re-)acknowledge cumulatively; covers lost ACKs too.  A
                // datagram beyond a hole shows the hole: the first one to
                // show it NAKs instead, which acknowledges just as much.
                let upto = flow.expected - 1;
                if seq > flow.expected && flow.gap_naked != flow.expected {
                    flow.gap_naked = flow.expected;
                    self.send_nak(flow_src, upto);
                } else {
                    self.send_ack(flow_src, upto);
                }
            }
            Dgram::Ack { flow_dst, upto } => self.acknowledged(flow_dst, upto),
            Dgram::Nak { flow_dst, upto } => {
                // Repair first: packets the freed credits admit are fresh.
                self.repair(flow_dst, upto);
                self.acknowledged(flow_dst, upto);
                // The damaged frame may have been our ACK of the NAKer's
                // flow; re-sending it is one small frame either way.
                let upto = self.rx_flows.get(&flow_dst).map_or(0, |f| f.expected - 1);
                if upto > 0 {
                    self.send_ack(flow_dst, upto);
                }
            }
        }
    }

    /// Retires `dst`'s datagrams up to `upto` and spends the credits that
    /// frees on the flow's stalled packets: the cumulative ACK is the
    /// credit grant.  An ACK that moves the ACK point re-arms the flow's
    /// probe and samples the round trip of the datagram it names if only
    /// that datagram's original was ever sent (Karn's rule: otherwise the
    /// ACK may be a later copy's).
    fn acknowledged(&mut self, dst: ProcId, upto: u64) {
        if let Some(flow) = self.tx_flows.get_mut(&dst) {
            let retired = flow.unacked.partition_point(|u| u.seq <= upto);
            if retired > 0 {
                let now = Instant::now();
                let named = &flow.unacked[retired - 1];
                if named.seq == upto && named.attempts == 0 && named.repairs == 0 {
                    let r = now - named.sent;
                    match &mut flow.rtt {
                        Some(rtt) => rtt.update(r),
                        None => flow.rtt = Some(Rtt::first(r)),
                    }
                }
                flow.unacked.drain(..retired);
                flow.probe = Probe::Ready;
                if !flow.unacked.is_empty() {
                    flow.arm_probe(now, &self.plan);
                }
            }
        }
        self.admit_pending(dst);
    }

    /// Answers a NAK from `dst`: resends every datagram above `upto` that
    /// no NAK has repaired since its last timer (re)transmission.  A repair
    /// restarts the datagram's timer but leaves `attempts` — the backoff
    /// exponent and the death budget — to the timer, and the
    /// once-per-period limit keeps a burst of NAKs (one per damaged frame)
    /// from multiplying into a burst of resends.
    fn repair(&mut self, dst: ProcId, upto: u64) {
        let now = Instant::now();
        let Some(flow) = self.tx_flows.get_mut(&dst) else {
            return;
        };
        let base = flow.base_rto(&self.plan);
        let mut resend = Vec::new();
        for u in flow.unacked.iter_mut() {
            if u.seq <= upto || u.repaired {
                continue;
            }
            u.repaired = true;
            u.repairs += 1;
            u.due = now + rto_for(base, self.plan.max_rto, self.dice, dst, u.seq, u.attempts);
            resend.push((u.seq, copy_key(u.attempts, u.repairs), u.packet.clone()));
        }
        self.stats
            .repairs
            .fetch_add(resend.len() as u64, Ordering::Relaxed);
        for (seq, key, packet) in resend {
            self.send_data(dst, seq, key, packet);
        }
    }

    /// Fires the flow timers due at `now`: retransmits each datagram whose
    /// timeout passed and probes each flow whose probe deadline passed.  A
    /// peer is declared dead once one of its datagrams has spent the
    /// retransmit budget and nothing valid has arrived from it — since
    /// that datagram's original send — for the silence budget; until then
    /// a spent datagram keeps retransmitting, and its timer never runs
    /// past the moment the silence would be complete.  Returns the
    /// earliest timer still armed.
    fn retransmit_due(&mut self, now: Instant) -> Option<Instant> {
        let (max, max_rto, silence) = (self.plan.max_retransmits, self.plan.max_rto, self.silence);
        // (peer, seq, copy key, packet, whether the copy is a probe)
        let mut resend: Vec<(ProcId, u64, u64, Packet, bool)> = Vec::new();
        let mut died: Vec<ProcId> = Vec::new();
        'flows: for (&dst, flow) in &mut self.tx_flows {
            let base = flow.base_rto(&self.plan);
            let heard = flow.heard;
            for u in &mut flow.unacked {
                if now < u.due {
                    continue;
                }
                // `None`: a budget past the end of time (death disabled).
                let silent_at = heard.max(u.sent).checked_add(silence);
                if u.attempts >= max && silent_at.is_some_and(|at| now >= at) {
                    died.push(dst);
                    continue 'flows;
                }
                u.attempts = u.attempts.saturating_add(1);
                u.repaired = false;
                u.due = now + rto_for(base, max_rto, self.dice, dst, u.seq, u.attempts);
                if let Some(at) = silent_at.filter(|_| u.attempts >= max) {
                    u.due = u.due.min(at);
                }
                let key = copy_key(u.attempts, 0);
                resend.push((dst, u.seq, key, u.packet.clone(), false));
            }
            if flow.probe.deadline().is_some_and(|at| now >= at) {
                flow.probe = Probe::Spent;
                // Once the timer has resent the tail, a probe adds nothing.
                if let Some(u) = flow.unacked.last_mut().filter(|u| u.attempts == 0) {
                    u.repairs += 1;
                    let key = copy_key(0, u.repairs);
                    resend.push((dst, u.seq, key, u.packet.clone(), true));
                }
            }
        }
        for (dst, seq, key, packet, probe) in resend {
            if died.contains(&dst) {
                continue;
            }
            let counter = if probe {
                &self.stats.probes
            } else {
                &self.stats.retransmissions
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.send_data(dst, seq, key, packet);
        }
        for dst in died {
            if self.dead.insert(dst) {
                self.stats
                    .peers_declared_dead
                    .fetch_add(1, Ordering::Relaxed);
                // Abandon the flow: the peer is gone, and holding unacked
                // or credit-stalled data would stall shutdown draining
                // forever.
                if let Some(flow) = self.tx_flows.get_mut(&dst) {
                    flow.unacked.clear();
                    flow.probe = Probe::Ready;
                    if !flow.pending.is_empty() {
                        flow.pending.clear();
                        self.stats
                            .credit_stalled_now
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
                let _ = self.deliver_tx.send(NetEvent::PeerDead { peer: dst });
            }
        }
        self.tx_flows
            .values()
            .flat_map(|f| f.unacked.iter().map(|u| u.due).chain(f.probe.deadline()))
            .min()
    }

    /// Releases the delay-held frames whose time has come at `now`;
    /// returns the earliest release still pending.
    fn flush_delayed(&mut self, now: Instant) -> Option<Instant> {
        if self.delayed.is_empty() {
            return None;
        }
        let (due, held): (Vec<_>, Vec<_>) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition(|(at, ..)| *at <= now);
        self.delayed = held;
        for (_, dst, frame) in due {
            self.raw_send(dst, frame);
        }
        self.delayed.iter().map(|(at, ..)| *at).min()
    }

    /// Releases the held frames no swap partner arrived for within the
    /// [holdback window](Self::holdback_window); returns the earliest
    /// release still pending.
    fn flush_holdback(&mut self, now: Instant) -> Option<Instant> {
        let due: Vec<ProcId> = self
            .holdback
            .iter()
            .filter(|(_, (release, _))| *release <= now)
            .map(|(&dst, _)| dst)
            .collect();
        for dst in due {
            let (_, frame) = self.holdback.remove(&dst).expect("listed above");
            self.raw_send(dst, frame);
        }
        self.holdback.values().map(|(release, _)| *release).min()
    }

    /// Fires every timer that is due and returns the earliest one still
    /// armed: an unacked datagram's `due`, a flow's probe deadline, a
    /// delayed frame's release, or a holdback slot's release.
    /// Retransmissions and probes go first because they can arm the other
    /// two.
    fn fire_timers(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let retransmit = self.retransmit_due(now);
        let delayed = self.flush_delayed(now);
        let holdback = self.flush_holdback(now);
        [retransmit, delayed, holdback].into_iter().flatten().min()
    }

    /// Nothing of this node's is left in flight.
    fn drained(&self) -> bool {
        self.tx_flows
            .values()
            .all(|f| f.unacked.is_empty() && f.pending.is_empty())
            && self.delayed.is_empty()
            && self.holdback.is_empty()
    }

    fn run(mut self) {
        // Event loop: block on the inbox until a message arrives or the
        // earliest armed timer is due — with no timer armed, indefinitely.
        // Exits once the last sender is gone and every flow is drained, or
        // at the scripted kill point.  The inbox cannot disconnect first:
        // this engine's own `wire_txs` holds a sender to it.
        let mut outbound_open = true;
        let mut wake: Option<Instant> = None;
        loop {
            let msg = match wake {
                None => match self.inbox.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => return,
                },
                Some(at) => match self
                    .inbox
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                },
            };
            match msg {
                Some(EngineIn::Outbound(dst, pkt)) => self.handle_outbound(dst, pkt),
                Some(EngineIn::Wire(src, frame)) => self.handle_wire(src, frame),
                Some(EngineIn::OutboundClosed) => outbound_open = false,
                // A timer came due.
                None => {}
            }
            if self.killed {
                // Crashed node: drop every channel on the way out; peers
                // detect the death through their retransmit budgets.
                return;
            }
            wake = self.fire_timers();
            if !outbound_open && self.drained() {
                return;
            }
        }
    }
}

/// Saturating left shift (avoids overflow for large backoff exponents).
trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if n >= 64 || self > (u64::MAX >> n) {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// Per-node wiring of a faulty network: outbound handles (for
/// `NetSender`), in-order event receivers (for `Endpoint`), and the
/// shared stats block.
pub(crate) type ReliableFabric = (Vec<Outbound>, Vec<LinkRx<NetEvent>>, Arc<ReliabilityStats>);

/// Builds the per-node engines and wiring for a faulty network.  Every
/// channel — engine inbox, delivery — is a metered link feeding the
/// shared [`ReliabilityStats::link_high_water`] gauge, so no unobservable
/// queue survives in the transport.
pub(crate) fn build_reliable_fabric(n: usize, plan: FaultPlan) -> ReliableFabric {
    let stats = Arc::new(ReliabilityStats::default());
    let (wire_txs, inboxes): (Vec<_>, Vec<_>) = (0..n)
        .map(|_| metered_link::<EngineIn>(stats.link_gauge()))
        .unzip();
    let mut outbounds = Vec::with_capacity(n);
    let mut deliver_rxs = Vec::with_capacity(n);
    for (i, inbox) in inboxes.into_iter().enumerate() {
        let (deliver_tx, deliver_rx) = metered_link(stats.link_gauge());
        outbounds.push(Outbound {
            inbox: wire_txs[i].clone(),
        });
        deliver_rxs.push(deliver_rx);
        let engine = ReliabilityEngine::new(
            ProcId::from_index(i),
            &plan,
            wire_txs.clone(),
            inbox,
            deliver_tx,
            Arc::clone(&stats),
        );
        std::thread::Builder::new()
            .name(format!("reliability-{i}"))
            .spawn(move || engine.run())
            .expect("spawn reliability engine");
    }
    (outbounds, deliver_rxs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;

    /// A packet with every traffic class counted and a non-empty payload.
    fn golden_packet() -> Packet {
        Packet {
            src: ProcId(1),
            dst: ProcId(u16::MAX),
            sent_at: 0x0123_4567_89ab_cdef,
            breakdown: crate::ByteBreakdown([1, 2, 3, 4, u64::MAX]),
            payload: vec![0xde, 0xad, 0xbe, 0xef, 0],
        }
    }

    /// Each datagram variant, the data one carrying [`golden_packet`].
    fn golden_dgrams() -> Vec<Dgram> {
        vec![
            Dgram::Data {
                flow_src: ProcId(3),
                seq: 42,
                packet: golden_packet(),
            },
            Dgram::Ack {
                flow_dst: ProcId(1),
                upto: 7,
            },
            Dgram::Nak {
                flow_dst: ProcId(2),
                upto: u64::MAX,
            },
        ]
    }

    /// The datagram and packet bytes are the simulated wire's format:
    /// pinned by length and digest, and the short ones byte for byte.
    #[test]
    fn dgram_and_packet_bytes_are_pinned() {
        assert_eq!(
            crate::wire::pin(&golden_packet()),
            (61, 2254236067475764967)
        );
        let pins: Vec<(usize, u64)> = golden_dgrams().iter().map(crate::wire::pin).collect();
        assert_eq!(
            pins,
            [
                (72, 10120790757104519482),
                (11, 6017150828101570162),
                (11, 6332123778027112375),
            ]
        );
        let ack = Dgram::Ack {
            flow_dst: ProcId(1),
            upto: 7,
        };
        assert_eq!(ack.to_bytes(), [1, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
        let nak = Dgram::Nak {
            flow_dst: ProcId(0x0201),
            upto: 0x03,
        };
        assert_eq!(nak.to_bytes(), [2, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn golden_dgrams_keep_the_wire_laws() {
        crate::wire::assert_wire_laws(&golden_packet());
        golden_dgrams()
            .iter()
            .for_each(crate::wire::assert_wire_laws);
    }

    /// Node 0's engine of a two-node fabric, driven by hand (no thread),
    /// and node 1's inbox, where node 0's frames land.
    fn engine_for_node0(plan: &FaultPlan) -> (ReliabilityEngine, LinkRx<EngineIn>) {
        let stats = Arc::new(ReliabilityStats::default());
        let (wire_txs, mut inboxes): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| metered_link::<EngineIn>(stats.link_gauge()))
            .unzip();
        let peer = inboxes.pop().expect("two inboxes");
        let inbox = inboxes.pop().expect("two inboxes");
        let (deliver_tx, _) = metered_link(stats.link_gauge());
        let engine = ReliabilityEngine::new(ProcId(0), plan, wire_txs, inbox, deliver_tx, stats);
        (engine, peer)
    }

    /// Every datagram node 0 has put on the wire to node 1 since the last
    /// look, decoded.
    fn sent(peer: &LinkRx<EngineIn>) -> Vec<Dgram> {
        std::iter::from_fn(|| peer.try_recv().ok())
            .map(|msg| match msg {
                EngineIn::Wire(ProcId(0), frame) => {
                    Dgram::from_bytes(decode_frame(&frame).expect("clean wire")).expect("decodes")
                }
                _ => panic!("only node 0's frames reach node 1's inbox"),
            })
            .collect()
    }

    fn packet(dst: u16) -> Packet {
        Packet {
            src: ProcId(0),
            dst: ProcId(dst),
            sent_at: 0,
            breakdown: crate::ByteBreakdown::default(),
            payload: Vec::new(),
        }
    }

    #[test]
    fn naks_repair_once_per_timer_period_and_spend_no_attempts() {
        let (mut engine, peer) = engine_for_node0(&FaultPlan::clean(3));
        let p1 = ProcId(1);
        engine.handle_outbound(p1, packet(1));
        let nak = encode_framed(&Dgram::Nak {
            flow_dst: p1,
            upto: 0,
        });
        let unacked = |e: &ReliabilityEngine| {
            let u = &e.tx_flows[&p1].unacked[0];
            (u.attempts, u.repairs, u.due)
        };
        let first_due = unacked(&engine).2;
        for _ in 0..5 {
            engine.handle_wire(p1, nak.clone());
        }
        let (attempts, repairs, due) = unacked(&engine);
        assert_eq!((attempts, repairs), (0, 1), "one repair per timer period");
        assert!(due >= first_due, "a repair restarts the timer");
        // The original and its one repair; nothing received, so no re-ACK.
        assert!(matches!(
            sent(&peer)[..],
            [Dgram::Data { seq: 1, .. }, Dgram::Data { seq: 1, .. }]
        ));
        // The timer fires: a new period, so the next NAK may repair again.
        engine.retransmit_due(due);
        for _ in 0..5 {
            engine.handle_wire(p1, nak.clone());
        }
        assert_eq!(unacked(&engine).0, 1, "only the timer spends attempts");
        assert_eq!(unacked(&engine).1, 2);
        assert_eq!(sent(&peer).len(), 2, "one timer copy, one repair");
        let snap = engine.stats.snapshot();
        assert_eq!((snap.retransmissions, snap.repairs), (1, 2));
        // A NAK acknowledges what it covers.
        engine.handle_wire(
            p1,
            encode_framed(&Dgram::Nak {
                flow_dst: p1,
                upto: 1,
            }),
        );
        assert!(engine.tx_flows[&p1].unacked.is_empty());
        assert!(sent(&peer).is_empty(), "nothing left to repair");
    }

    #[test]
    fn scripted_strikes_count_first_transmissions_only() {
        let plan = FaultPlan::clean(5)
            .with_corrupt_at(ProcId(0), 1, CorruptKind::Truncate)
            .with_corrupt_at(ProcId(0), 2, CorruptKind::GarbageTail)
            .with_corrupt_at(ProcId(0), 3, CorruptKind::BitFlip);
        let (mut engine, peer) = engine_for_node0(&plan);
        let p1 = ProcId(1);
        // Each frame node 0 has put on the wire since the last look: the
        // data seq it carries, or `None` when it was struck.
        let frames = || -> Vec<Option<u64>> {
            std::iter::from_fn(|| peer.try_recv().ok())
                .map(|msg| match msg {
                    EngineIn::Wire(_, frame) => match decode_frame(&frame) {
                        Ok(body) => match Dgram::from_bytes(body).expect("decodes") {
                            Dgram::Data { seq, .. } => Some(seq),
                            other => panic!("node 0 only sends data: {other:?}"),
                        },
                        Err(_) => None,
                    },
                    _ => panic!("only node 0's frames reach node 1's inbox"),
                })
                .collect()
        };
        // The peer's NAK for the damaged first original overtakes the
        // second original: the repair goes out first, unstruck and
        // uncounted, and the second strike still hits the second original.
        engine.handle_outbound(p1, packet(1));
        let nak = encode_framed(&Dgram::Nak {
            flow_dst: p1,
            upto: 0,
        });
        engine.handle_wire(p1, nak);
        engine.handle_outbound(p1, packet(1));
        assert_eq!(frames(), [None, Some(1), None]);
        // Timer retransmissions neither advance the ordinal nor get struck;
        // the third strike waits for the next original.
        engine.retransmit_due(Instant::now() + Duration::from_secs(60));
        assert_eq!(frames(), [Some(1), Some(2)]);
        engine.handle_outbound(p1, packet(1));
        assert_eq!(frames(), [None]);
        let snap = engine.stats.snapshot();
        assert_eq!(snap.corrupt_injected, 3, "{snap:?}");
        assert_eq!((snap.repairs, snap.retransmissions), (1, 2), "{snap:?}");
    }

    #[test]
    fn receiver_naks_damage_and_each_gap_once_but_not_quarantine() {
        let (mut engine, peer) = engine_for_node0(&FaultPlan::clean(4));
        let p1 = ProcId(1);
        let data = |seq| {
            encode_framed(&Dgram::Data {
                flow_src: p1,
                seq,
                packet: packet(0),
            })
        };
        // A damaged frame is NAKed to its source address.
        let mut damaged = data(1);
        damaged.truncate(5);
        engine.handle_wire(p1, damaged);
        assert!(matches!(sent(&peer)[..], [Dgram::Nak { upto: 0, .. }]));
        // Seq 1 is missing: seq 2 shows the gap and NAKs it, seq 3 shows
        // the same gap and only ACKs.
        engine.handle_wire(p1, data(2));
        engine.handle_wire(p1, data(3));
        assert!(matches!(
            sent(&peer)[..],
            [Dgram::Nak { upto: 0, .. }, Dgram::Ack { upto: 0, .. }]
        ));
        // The hole fills; a new one at 5 is NAKed afresh.
        engine.handle_wire(p1, data(1));
        engine.handle_wire(p1, data(5));
        assert!(matches!(
            sent(&peer)[..],
            [Dgram::Ack { upto: 3, .. }, Dgram::Nak { upto: 3, .. }]
        ));
        // A checksum-valid frame that does not decode was not damaged in
        // transit: quarantined, unanswered.
        engine.handle_wire(p1, encode_frame(&[0xFF, 0, 1]));
        assert_eq!(engine.stats.snapshot().decode_errors, 1);
        // Nor is a peer already declared dead answered.
        engine.dead.insert(p1);
        engine.handle_wire(p1, vec![0; 3]);
        assert!(sent(&peer).is_empty());
        assert_eq!(engine.stats.snapshot().naks, 3);
    }

    #[test]
    fn copy_ordinals_give_every_copy_its_own_key() {
        let mut acks = CopyCount::default();
        assert_eq!((acks.next(0), acks.next(0)), (0, 1));
        assert_eq!((acks.next(4), acks.next(4), acks.next(4)), (0, 1, 2));
        assert_eq!(acks.next(5), 0);
        // Data copies: the original and timer resends keep the repair
        // ordinal at zero, so neither collides with a repair.
        assert_eq!(copy_key(3, 0), 3);
        assert_ne!(copy_key(0, 1), copy_key(1, 0));
    }

    #[test]
    fn dice_matches_rate_roughly() {
        let dice = FaultDice { seed: 42 };
        let t = threshold(0.25);
        let hits = (0..10_000u64)
            .filter(|&i| dice.hit(TAG_DATA_DROP, 1, i, 0, t))
            .count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
        assert_eq!(
            (0..1000u64)
                .filter(|&i| dice.hit(TAG_DATA_DROP, 1, i, 0, threshold(0.0)))
                .count(),
            0
        );
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        for attempt in 1..12u64 {
            let d = backoff_delay(attempt, 42);
            assert!(d <= Duration::from_millis(64));
            assert_eq!(d, backoff_delay(attempt, 42));
        }
        assert_ne!(backoff_delay(3, 1), backoff_delay(3, 2), "jitter is keyed");
        // Recovery pacing is part of a run's reproducible schedule: the
        // delay per (attempt, seed) is pinned to the microsecond.
        for (attempt, seed, micros) in [(1, 42, 709), (4, 7, 5394), (11, 0xDEAD_BEEF, 39_356)] {
            assert_eq!(backoff_delay(attempt, seed), Duration::from_micros(micros));
        }
    }

    #[test]
    fn dice_is_keyed_not_sequenced() {
        // The decision for a given datagram identity is a pure function of
        // the seed — evaluation order cannot change it.
        let dice = FaultDice { seed: 7 };
        let t = threshold(0.5);
        let forward: Vec<bool> = (0..64u64)
            .map(|i| dice.hit(TAG_DATA_DROP, 3, i, 0, t))
            .collect();
        let backward: Vec<bool> = (0..64u64)
            .rev()
            .map(|i| dice.hit(TAG_DATA_DROP, 3, i, 0, t))
            .collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        let other = FaultDice { seed: 8 };
        let differs: Vec<bool> = (0..64u64)
            .map(|i| other.hit(TAG_DATA_DROP, 3, i, 0, t))
            .collect();
        assert_ne!(forward, differs);
    }

    #[test]
    fn tags_decorrelate_decision_streams() {
        let dice = FaultDice { seed: 11 };
        let t = threshold(0.5);
        let drops: Vec<bool> = (0..128u64)
            .map(|i| dice.hit(TAG_DATA_DROP, 2, i, 0, t))
            .collect();
        let dups: Vec<bool> = (0..128u64).map(|i| dice.hit(TAG_DUP, 2, i, 0, t)).collect();
        assert_ne!(drops, dups);
    }

    #[test]
    fn saturating_shl_caps() {
        assert_eq!(1u64.saturating_shl(3), 8);
        assert_eq!(u64::MAX.saturating_shl(1), u64::MAX);
        assert_eq!(2u64.saturating_shl(64), u64::MAX);
        assert_eq!(1u64.saturating_shl(63), 1 << 63);
    }

    #[test]
    fn every_corruption_kind_is_detected() {
        // Whatever mutation the plan applies, the receiver's frame gate
        // must reject the result — corruption may never decode.
        let dgram = Dgram::Ack {
            flow_dst: ProcId(1),
            upto: 42,
        };
        let clean = encode_frame(&dgram.to_bytes());
        assert!(decode_frame(&clean).is_ok());
        for kind in [
            CorruptKind::BitFlip,
            CorruptKind::Truncate,
            CorruptKind::GarbageTail,
        ] {
            for roll in 0..512u64 {
                let mut frame = clean.clone();
                apply_corruption(&mut frame, kind, roll);
                assert!(
                    decode_frame(&frame).is_err(),
                    "{kind:?} with roll {roll} slipped through"
                );
            }
        }
    }

    #[test]
    fn datagram_frames_in_place_byte_for_byte() {
        // `frame_for` frames each datagram in place, sized by its
        // `wire_size`: both must agree with the plain codec.
        let data = Dgram::Data {
            flow_src: ProcId(2),
            seq: 77,
            packet: Packet {
                src: ProcId(2),
                dst: ProcId(0),
                sent_at: 9,
                breakdown: crate::ByteBreakdown::single(crate::TrafficClass::Data, 5),
                payload: vec![1, 2, 3, 4, 5],
            },
        };
        let ack = Dgram::Ack {
            flow_dst: ProcId(1),
            upto: 42,
        };
        for dgram in [data, ack] {
            let body = dgram.to_bytes();
            assert_eq!(dgram.wire_size(), body.len() as u64);
            assert_eq!(encode_framed(&dgram), encode_frame(&body));
        }
    }

    #[test]
    fn corruption_stream_is_keyed_not_sequenced() {
        // The corrupt decision and the chosen mutation for a given frame
        // identity are pure functions of the seed, independent of the
        // order frames are evaluated in.
        let dice = FaultDice { seed: 23 };
        let t = threshold(0.3);
        let decide = |a: u64| -> Option<u64> {
            dice.hit(TAG_CORRUPT, 1, a, 0, t)
                .then(|| dice.mix(TAG_CORRUPT, 1, a, 0) % 3)
        };
        let forward: Vec<_> = (0..256u64).map(decide).collect();
        let backward: Vec<_> = {
            let mut v: Vec<_> = (0..256u64).rev().map(decide).collect();
            v.reverse();
            v
        };
        assert_eq!(forward, backward);
        assert!(forward.iter().any(Option::is_some), "rate 0.3 never hit");
        // A different seed yields a different stream.
        let other = FaultDice { seed: 24 };
        let differs: Vec<_> = (0..256u64)
            .map(|a| {
                other
                    .hit(TAG_CORRUPT, 1, a, 0, t)
                    .then(|| other.mix(TAG_CORRUPT, 1, a, 0) % 3)
            })
            .collect();
        assert_ne!(forward, differs);
    }

    #[test]
    fn structural_validation_rejects_out_of_range_procs() {
        let ack = Dgram::Ack {
            flow_dst: ProcId(5),
            upto: 1,
        };
        assert!(ack.structurally_valid(6));
        assert!(!ack.structurally_valid(5));
        // A checksum-valid frame naming a proc outside the cluster must
        // round-trip the frame gate but fail the structural gate.
        let frame = encode_frame(&ack.to_bytes());
        let body = decode_frame(&frame).expect("frame intact");
        let decoded = Dgram::from_bytes(body).expect("decodes fine");
        assert!(!decoded.structurally_valid(3));
    }

    #[test]
    fn fault_plan_builders_compose() {
        let plan = FaultPlan::new(0.1, 9)
            .with_rto(Duration::from_millis(5), Duration::from_millis(80))
            .with_max_retransmits(8)
            .with_duplication(0.05)
            .with_reordering(0.02)
            .with_corruption(0.03)
            .with_delay(Duration::from_micros(10), Duration::from_micros(50))
            .with_kill(ProcId(2), 100)
            .with_partition(ProcId(1), 40)
            .with_corrupt_at(ProcId(0), 3, CorruptKind::Truncate)
            .with_kill_at_phase(ProcId(0), ProtocolPhase::BitmapRound, 2);
        assert_eq!(plan.rto, Duration::from_millis(5));
        assert_eq!(plan.max_retransmits, 8);
        assert_eq!(plan.corrupt_rate, 0.03);
        assert_eq!(plan.events.len(), 4);
        assert!(matches!(
            plan.events[3],
            FaultEvent::KillAtPhase {
                node: ProcId(0),
                phase: ProtocolPhase::BitmapRound,
                hit: 2
            }
        ));
        assert!(matches!(
            plan.events[2],
            FaultEvent::CorruptAt {
                node: ProcId(0),
                at_frame: 3,
                kind: CorruptKind::Truncate
            }
        ));
        assert!(matches!(
            plan.events[0],
            FaultEvent::Kill {
                node: ProcId(2),
                at_event: 100
            }
        ));
    }

    #[test]
    fn fault_plan_rules_between_attempts() {
        let mut plan = FaultPlan::new(0.1, 9)
            .with_kill(ProcId(2), 100)
            .with_kill_at_phase(ProcId(0), ProtocolPhase::CkptWindow, 1)
            .with_kill_at_phase(ProcId(0), ProtocolPhase::BitmapRound, 2)
            .with_partition_healed(ProcId(1), 10, 20)
            .with_partition(ProcId(1), 40)
            .with_slow_consumer(ProcId(2), 0, Duration::from_millis(1))
            .with_corrupt_at(ProcId(0), 3, CorruptKind::Truncate);
        assert_eq!(
            plan.phase_strikes(ProcId(0)),
            vec![
                (ProtocolPhase::CkptWindow, 1),
                (ProtocolPhase::BitmapRound, 2)
            ]
        );
        assert!(plan.phase_strikes(ProcId(1)).is_empty());
        assert!(plan.cuts(ProcId(1)) && !plan.cuts(ProcId(0)));
        assert_eq!(plan.strip_fired(), 1, "one healing window");
        assert_eq!(plan.events.len(), 3, "the permanent faults stay armed");
        assert!(plan.events.iter().all(|e| !e.fires_once()));
        assert!(plan.cuts(ProcId(1)), "the permanent partition still cuts");
        assert_eq!(plan.strip_fired(), 0, "a heal is counted once");
    }

    #[test]
    fn link_capacity_defaults_unbounded_and_composes() {
        let plan = FaultPlan::clean(3);
        assert_eq!(plan.link_capacity, u32::MAX);
        let plan =
            plan.with_link_capacity(4)
                .with_slow_consumer(ProcId(1), 50, Duration::from_millis(2));
        assert_eq!(plan.link_capacity, 4);
        assert_eq!(
            plan.events[0],
            FaultEvent::SlowConsumer {
                node: ProcId(1),
                at_datagram: 50,
                dwell: Duration::from_millis(2)
            }
        );
    }

    #[test]
    #[should_panic(expected = "link capacity below 1")]
    fn zero_link_capacity_rejected() {
        let _ = FaultPlan::clean(1).with_link_capacity(0);
    }

    fn ack(upto: u64) -> Vec<u8> {
        encode_framed(&Dgram::Ack {
            flow_dst: ProcId(1),
            upto,
        })
    }

    /// Node 0's flow to node 1, created with round-trip estimate `rtt`.
    fn warm(engine: &mut ReliabilityEngine, rtt: Rtt) {
        engine.tx_flows.insert(
            ProcId(1),
            FlowTx {
                rtt: Some(rtt),
                ..FlowTx::new()
            },
        );
    }

    #[test]
    fn rtt_estimate_follows_rfc6298() {
        let (ms, us) = (Duration::from_millis, Duration::from_micros);
        let plan = FaultPlan::clean(1).with_rto(ms(2), ms(64));
        let mut rtt = Rtt::first(ms(4));
        assert_eq!((rtt.srtt, rtt.rttvar), (ms(4), ms(2)));
        assert_eq!(rtt.rto(&plan), ms(12), "SRTT + 4·RTTVAR");
        // RTTVAR ← ¾·2 + ¼·|4 − 8| = 2.5; SRTT ← ⅞·4 + ⅛·8 = 4.5.
        rtt.update(ms(8));
        assert_eq!((rtt.srtt, rtt.rttvar), (us(4500), us(2500)));
        assert_eq!(rtt.rto(&plan), us(14_500));
        let capped = plan.clone().with_rto(ms(2), ms(10));
        assert_eq!(rtt.rto(&capped), ms(10), "capped at max_rto");
        assert_eq!(rtt.probe_timeout(&plan), ms(9), "2·SRTT");
        // RTTVAR ← ¾·2.5 + ¼·|4.5 − 4.5| = 1.875; SRTT stays 4.5.
        rtt.update(us(4500));
        assert_eq!((rtt.srtt, rtt.rttvar), (us(4500), us(1875)));
        // A fabric hop of tens of microseconds meets both floors: the
        // configured rto, and max(200 µs, rto/32) for the probe.
        let fast = Rtt::first(us(20));
        assert_eq!(fast.rto(&plan), ms(2));
        assert_eq!(fast.probe_timeout(&plan), us(200));
        let slow = plan.clone().with_rto(ms(1000), ms(2000));
        assert_eq!(fast.rto(&slow), ms(1000));
        assert_eq!(fast.probe_timeout(&slow), us(31_250));
        // The flow's timeout: the plan's until the first sample, the
        // estimate once it is longer.
        let mut flow = FlowTx::new();
        assert_eq!(flow.base_rto(&plan), ms(2));
        flow.rtt = Some(fast);
        assert_eq!(flow.base_rto(&plan), ms(2));
        flow.rtt = Some(rtt);
        assert_eq!(flow.base_rto(&plan), us(12_000));
    }

    #[test]
    fn only_an_acked_original_times_a_round_trip() {
        let (mut engine, peer) = engine_for_node0(&FaultPlan::clean(5));
        let p1 = ProcId(1);
        let rtt = |e: &ReliabilityEngine| e.tx_flows[&p1].rtt;
        // Timer-retransmitted, then acknowledged: no sample.
        engine.handle_outbound(p1, packet(1));
        let due = engine.tx_flows[&p1].unacked[0].due;
        engine.retransmit_due(due);
        engine.handle_wire(p1, ack(1));
        assert_eq!(rtt(&engine), None, "retransmitted");
        // NAK-repaired, then acknowledged: no sample.
        engine.handle_outbound(p1, packet(1));
        engine.handle_wire(
            p1,
            encode_framed(&Dgram::Nak {
                flow_dst: p1,
                upto: 1,
            }),
        );
        engine.handle_wire(p1, ack(2));
        assert_eq!(rtt(&engine), None, "repaired");
        // A clean original: the first sample.
        engine.handle_outbound(p1, packet(1));
        engine.handle_wire(p1, ack(3));
        assert!(rtt(&engine).is_some(), "clean original");
        // Probed, then acknowledged: no sample.
        let known = Rtt {
            srtt: Duration::from_millis(1),
            rttvar: Duration::from_millis(1),
        };
        engine.tx_flows.get_mut(&p1).expect("flow").rtt = Some(known);
        engine.handle_outbound(p1, packet(1));
        let Probe::Armed(at) = engine.tx_flows[&p1].probe else {
            panic!("a new datagram arms the probe");
        };
        engine.retransmit_due(at);
        assert_eq!(engine.stats.snapshot().probes, 1);
        engine.handle_wire(p1, ack(4));
        assert_eq!(rtt(&engine), Some(known), "probed");
        // A duplicate ACK retires nothing and times nothing.
        engine.handle_wire(p1, ack(4));
        assert_eq!(rtt(&engine), Some(known), "duplicate ACK");
        engine.handle_outbound(p1, packet(1));
        engine.handle_wire(p1, ack(5));
        assert_ne!(rtt(&engine), Some(known), "clean original");
        assert_eq!(
            sent(&peer).len(),
            8,
            "five originals, a resend, a repair, a probe"
        );
    }

    #[test]
    fn a_tail_probe_fires_once_per_ack_advance_and_spends_no_attempt() {
        // A seed whose dice drop seq 1's original (key (0, 0)) but not its
        // first repair-ordinal copy (key (0, 1)).
        let (t, p1) = (threshold(0.5), ProcId(1));
        let seed = (0..)
            .find(|&s| {
                let dice = FaultDice { seed: s };
                dice.hit(TAG_DATA_DROP, 1, 1, copy_key(0, 0), t)
                    && !dice.hit(TAG_DATA_DROP, 1, 1, copy_key(0, 1), t)
            })
            .expect("some seed");
        let (mut engine, peer) = engine_for_node0(&FaultPlan::new(0.5, seed));
        let srtt = Duration::from_millis(1);
        warm(
            &mut engine,
            Rtt {
                srtt,
                rttvar: Duration::from_millis(1),
            },
        );
        engine.handle_outbound(p1, packet(1));
        assert!(sent(&peer).is_empty(), "the original is lost");
        let (sent_at, due) = {
            let u = &engine.tx_flows[&p1].unacked[0];
            (u.sent, u.due)
        };
        assert_eq!(
            engine.tx_flows[&p1].probe,
            Probe::Armed(sent_at + 2 * srtt),
            "max(2·SRTT, probe floor)"
        );
        assert!(due > sent_at + 2 * srtt, "the probe goes before the timer");
        assert!(engine
            .retransmit_due(sent_at + 2 * srtt - Duration::from_nanos(1))
            .is_some());
        assert!(sent(&peer).is_empty(), "not yet due");
        engine.retransmit_due(sent_at + 2 * srtt);
        assert!(matches!(sent(&peer)[..], [Dgram::Data { seq: 1, .. }]));
        let u = &engine.tx_flows[&p1].unacked[0];
        assert_eq!(
            (u.attempts, u.repairs),
            (0, 1),
            "a repair ordinal, no attempt"
        );
        assert_eq!(engine.tx_flows[&p1].probe, Probe::Spent);
        // Spent until the ACK point moves: neither a later deadline nor a
        // new datagram re-arms it.
        engine.retransmit_due(due - Duration::from_nanos(1));
        engine.handle_outbound(p1, packet(1));
        assert_eq!(engine.tx_flows[&p1].probe, Probe::Spent);
        sent(&peer);
        let snap = engine.stats.snapshot();
        assert_eq!((snap.probes, snap.retransmissions, snap.repairs), (1, 0, 0));
        // ACK(1) moves the ACK point: the newest datagram, seq 2, is probed
        // next, once.
        engine.handle_wire(p1, ack(1));
        let Probe::Armed(at) = engine.tx_flows[&p1].probe else {
            panic!("an ACK advance re-arms the probe");
        };
        engine.retransmit_due(at);
        engine.retransmit_due(at + srtt);
        assert_eq!(engine.stats.snapshot().probes, 2);
        assert_eq!(engine.tx_flows[&p1].unacked[0].repairs, 1);
    }

    #[test]
    fn silence_budget_is_the_fixed_schedule() {
        let ms = Duration::from_millis;
        let plan = FaultPlan::clean(1)
            .with_rto(ms(2), ms(16))
            .with_max_retransmits(8);
        assert_eq!(silence_budget(&plan), ms(2 + 4 + 8 + 16 * 6));
        assert_eq!(silence_budget(&plan.with_max_retransmits(0)), ms(2));
        let endless = FaultPlan::clean(1).with_max_retransmits(u32::MAX);
        assert!(silence_budget(&endless) > Duration::from_secs(3600 * 24 * 365));
    }

    #[test]
    fn a_silent_peer_dies_on_the_fixed_schedule_not_sooner() {
        let ms = Duration::from_millis;
        let plan = FaultPlan::clean(6)
            .with_rto(ms(2), ms(16))
            .with_max_retransmits(8);
        let budget = silence_budget(&plan);
        let fast = Rtt::first(Duration::from_micros(20));
        for rtt in [None, Some(fast)] {
            let (mut engine, _peer) = engine_for_node0(&plan);
            if let Some(rtt) = rtt {
                warm(&mut engine, rtt);
            }
            engine.handle_outbound(ProcId(1), packet(1));
            let sent_at = engine.tx_flows[&ProcId(1)].unacked[0].sent;
            // Fire every timer at its deadline until none is left: the
            // peer is dead and its flow abandoned.
            let mut now = sent_at;
            while let Some(next) = engine.retransmit_due(now) {
                now = next;
            }
            assert_eq!(engine.stats.snapshot().peers_declared_dead, 1);
            let died = now - sent_at;
            assert!(died >= budget, "{rtt:?}: dead after {died:?}");
            assert!(
                died <= budget + plan.max_rto,
                "{rtt:?}: dead after {died:?}"
            );
            assert!(engine.dead.contains(&ProcId(1)));
        }
    }

    #[test]
    fn a_peer_still_acknowledging_is_not_declared_dead() {
        // The timer spends the budget of three within ≈ 7 ms, but the peer
        // keeps acknowledging (its cumulative point, 0) every millisecond,
        // so it is never silent for the 11 ms budget.
        let ms = Duration::from_millis;
        let plan = FaultPlan::clean(8)
            .with_rto(ms(1), ms(4))
            .with_max_retransmits(3);
        let (mut engine, _peer) = engine_for_node0(&plan);
        let p1 = ProcId(1);
        engine.handle_outbound(p1, packet(1));
        let until = Instant::now() + 4 * silence_budget(&plan);
        while Instant::now() < until {
            engine.handle_wire(p1, ack(0));
            engine.retransmit_due(Instant::now());
            std::thread::sleep(ms(1));
        }
        assert!(engine.tx_flows[&p1].unacked[0].attempts > plan.max_retransmits);
        assert_eq!(engine.stats.snapshot().peers_declared_dead, 0);
        assert!(engine.dead.is_empty());
    }
}
