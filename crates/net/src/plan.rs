//! The wire's fault plan and the keyed dice behind every injected fault.
//!
//! A [`FaultPlan`] names the faults a run's reliability engines inject —
//! Bernoulli loss, duplication, delay, reordering and corruption rates, and
//! scripted partitions, kills, corruptions and slow consumers — plus the
//! retransmission policy the engines follow.  Every per-datagram decision
//! is drawn from [`FaultDice`], a hash of the plan seed and the datagram
//! copy's identity, so a `(plan, seed)` reproduces the same injection
//! stream for the same traffic (see [`crate::reliable`]).

use std::time::Duration;

use cvm_vclock::ProcId;

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
    /// retransmission timing (see [`crate::reliable`]).
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

    /// Enables ACK and NAK loss at `rate` (see the determinism caveat in
    /// [`crate::reliable`]).
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

/// Decision tags feeding the keyed fault hash (distinct streams per kind).
pub(crate) const TAG_DATA_DROP: u64 = 0xD1;
pub(crate) const TAG_ACK_DROP: u64 = 0xD2;
pub(crate) const TAG_DUP: u64 = 0xD3;
pub(crate) const TAG_REORDER: u64 = 0xD4;
pub(crate) const TAG_DELAY: u64 = 0xD5;
pub(crate) const TAG_JITTER: u64 = 0xD6;
/// Whether a frame is corrupted at all.
pub(crate) const TAG_CORRUPT: u64 = 0xD7;
/// Which mutation a corrupted frame receives, and where it lands.
pub(crate) const TAG_CORRUPT_KIND: u64 = 0xD8;
/// NAK loss (at the ACK drop rate) and every other decision on a NAK.
pub(crate) const TAG_NAK: u64 = 0xD9;

/// Deterministic per-datagram fault dice: a splitmix64-style hash of the
/// seed and the datagram identity, so decisions never depend on wall-clock
/// time or on the order faults are evaluated in.
#[derive(Clone, Copy)]
pub(crate) struct FaultDice {
    pub(crate) seed: u64,
}

impl FaultDice {
    pub(crate) fn mix(&self, tag: u64, a: u64, b: u64, c: u64) -> u64 {
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

    pub(crate) fn hit(&self, tag: u64, a: u64, b: u64, c: u64, threshold: u64) -> bool {
        threshold > 0 && self.mix(tag, a, b, c) < threshold
    }
}

pub(crate) fn threshold(rate: f64) -> u64 {
    (rate * u64::MAX as f64) as u64
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
