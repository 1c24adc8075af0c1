//! One node's reliability protocol as a pure state machine.
//!
//! The engine owns no channel, no thread and no clock.  Each step is given
//! the time it happens at: [`Engine::on_input`] handles one arrival on the
//! node's inbox, and [`Engine::on_timer`] fires the timers due and returns
//! the earliest one still armed.  What a step decides — frames for peers,
//! deliveries for the node's endpoint, a slow consumer's dwell — waits on
//! an out-queue ([`Engine::poll_output`]) that the shell in
//! [`crate::reliable`] carries out in order, and that a test can read
//! instead while it steps engines on a fake clock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cvm_vclock::ProcId;

use super::ReliabilityStats;
use crate::plan::{
    threshold, CorruptKind, FaultDice, FaultEvent, FaultPlan, TAG_ACK_DROP, TAG_CORRUPT,
    TAG_CORRUPT_KIND, TAG_DATA_DROP, TAG_DELAY, TAG_DUP, TAG_JITTER, TAG_NAK, TAG_REORDER,
};
use crate::wire::{decode_frame, encode_framed, Wire};
use crate::{NetEvent, Packet};

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
    /// A flow opened at `now`, which counts as hearing from the peer.
    fn new(now: Instant) -> Self {
        FlowTx {
            next_seq: 1,
            unacked: Vec::new(),
            pending: VecDeque::new(),
            rtt: None,
            probe: Probe::Ready,
            heard: now,
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

/// `min(base · 2^min(attempt, 20), max_rto)`, saturating at `u64::MAX` ns.
fn backed_off(base: Duration, attempt: u32, max_rto: Duration) -> Duration {
    let backed = (base.as_nanos() as u64).saturating_mul(1 << attempt.min(20));
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

/// Everything a reliability engine waits for, on one inbox.
pub(crate) enum EngineIn {
    /// A new packet from one of this node's senders.
    Outbound(ProcId, Packet),
    /// A frame off the faulty wire and the node that sent it.  The frame
    /// is encoded, checksummed bytes, not a structure, so the fault plan
    /// can corrupt it like a real physical layer; the sender is the
    /// datagram's source address as the socket reports it, outside the
    /// bytes the checksum covers, so it names whom to NAK even when the
    /// bytes are damaged.
    Wire(ProcId, Vec<u8>),
    /// The node's last sender is gone: drain, then exit.  Not an engine
    /// event — [`FaultEvent::Kill`] ordinals count packets and frames only.
    OutboundClosed,
}

/// What a step decided, for the shell to carry out in order.
pub(crate) enum EngineOut {
    /// A frame for the named node's inbox, from this node.
    Frame(ProcId, Vec<u8>),
    /// An in-order packet or a peer's death, for this node's endpoint.
    Deliver(NetEvent),
    /// The slow consumer's dwell: the rest of the arrival was handled this
    /// much later, and what follows on the queue waits for it.
    Dwell(Duration),
}

/// Frames held back from the wire: each one's release time, destination
/// and bytes.
type Held = Vec<(Instant, ProcId, Vec<u8>)>;

/// One node's reliability engine.
pub(crate) struct Engine {
    node: ProcId,
    /// Cluster size: every process a valid datagram names is below it.
    nodes: usize,
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
    /// Whether a sender may still post packets: cleared by
    /// [`EngineIn::OutboundClosed`].
    outbound_open: bool,
    /// Peers declared dead (retransmit budget spent in silence).
    dead: HashSet<ProcId>,
    /// [`silence_budget`] of the plan.
    silence: Duration,
    /// Frames held back by the delay distribution, with their release
    /// times.
    delayed: Held,
    /// Reordering holdback slots, at most one per destination: when the
    /// held frame is released if no swap partner turns up, and the frame.
    holdback: Held,
    stats: Arc<ReliabilityStats>,
    tx_flows: HashMap<ProcId, FlowTx>,
    rx_flows: HashMap<ProcId, FlowRx>,
    /// The time the step in progress happens at: what `on_input` or
    /// `on_timer` was given, moved on by a slow consumer's dwell.
    now: Instant,
    /// What the steps decided and the shell has not yet carried out.
    out: VecDeque<EngineOut>,
}

impl Engine {
    /// Node `me`'s engine in a `nodes`-node fabric under `plan`, created
    /// at `now`.
    pub(crate) fn new(
        me: ProcId,
        nodes: usize,
        plan: &FaultPlan,
        stats: Arc<ReliabilityStats>,
        now: Instant,
    ) -> Self {
        // *Every* partition window scripted for this node, not just the
        // first: a node may partition, heal and partition again.  The
        // first slow-consumer and kill strike win.
        let (mut partitions, mut corrupt_at, mut slow, mut kill_at) =
            (Vec::new(), Vec::new(), None, None);
        for event in &plan.events {
            match *event {
                FaultEvent::Partition {
                    node,
                    at_datagram,
                    heal_at,
                } if node == me => partitions.push((at_datagram, heal_at, false)),
                FaultEvent::CorruptAt {
                    node,
                    at_frame,
                    kind,
                } if node == me => corrupt_at.push((at_frame, kind)),
                FaultEvent::SlowConsumer {
                    node,
                    at_datagram,
                    dwell,
                } if node == me => slow = slow.or(Some((at_datagram, dwell))),
                FaultEvent::Kill { node, at_event } if node == me => {
                    kill_at = kill_at.or(Some(at_event))
                }
                _ => {}
            }
        }
        Engine {
            node: me,
            nodes,
            dice: FaultDice {
                seed: plan.seed ^ (me.index() as u64).wrapping_mul(0x1234_5677),
            },
            drop_t: threshold(plan.drop_rate),
            ack_drop_t: threshold(plan.ack_drop_rate),
            dup_t: threshold(plan.dup_rate),
            reorder_t: threshold(plan.reorder_rate),
            corrupt_t: threshold(plan.corrupt_rate),
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
            outbound_open: true,
            dead: HashSet::new(),
            silence: silence_budget(plan),
            delayed: Vec::new(),
            holdback: Vec::new(),
            stats,
            tx_flows: HashMap::new(),
            rx_flows: HashMap::new(),
            plan: plan.clone(),
            now,
            out: VecDeque::new(),
        }
    }

    /// Handles one arrival on the node's inbox at `now`.
    pub(crate) fn on_input(&mut self, now: Instant, input: EngineIn) {
        self.now = now;
        match input {
            EngineIn::Outbound(dst, packet) => self.handle_outbound(dst, packet),
            EngineIn::Wire(src, frame) => self.handle_wire(src, frame),
            EngineIn::OutboundClosed => self.outbound_open = false,
        }
    }

    /// Fires every timer that is due at `now` and returns the earliest one
    /// still armed: an unacked datagram's `due`, a flow's probe deadline,
    /// a delayed frame's release, or a holdback slot's release.
    /// Retransmissions and probes go first because they can arm the other
    /// two.  A killed engine fires nothing.
    pub(crate) fn on_timer(&mut self, now: Instant) -> Option<Instant> {
        if self.killed {
            return None;
        }
        self.now = now;
        let retransmit = self.retransmit_due();
        let delayed = release_due(&mut self.delayed, now, &mut self.out);
        let holdback = release_due(&mut self.holdback, now, &mut self.out);
        [retransmit, delayed, holdback].into_iter().flatten().min()
    }

    /// The oldest decision not yet carried out.
    pub(crate) fn poll_output(&mut self) -> Option<EngineOut> {
        self.out.pop_front()
    }

    /// Whether the engine is done: killed, or its last sender gone and
    /// nothing of this node's left in flight.
    pub(crate) fn halted(&self) -> bool {
        let idle = |f: &FlowTx| f.unacked.is_empty() && f.pending.is_empty();
        let drained = self.delayed.is_empty() && self.holdback.is_empty();
        self.killed || (!self.outbound_open && drained && self.tx_flows.values().all(idle))
    }

    /// The fabric's counters, which this engine feeds.
    pub(crate) fn stats(&self) -> &ReliabilityStats {
        &self.stats
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
        let key = dst.0 as u64 ^ tag;
        let kind = scripted.or_else(|| {
            let hit = self.dice.hit(TAG_CORRUPT, key, a, b, self.corrupt_t);
            hit.then(|| match self.dice.mix(TAG_CORRUPT, key, a, b) % 3 {
                0 => CorruptKind::BitFlip,
                1 => CorruptKind::Truncate,
                _ => CorruptKind::GarbageTail,
            })
        });
        if let Some(kind) = kind {
            let roll = self.dice.mix(TAG_CORRUPT_KIND, key, a, b);
            apply_corruption(&mut frame, kind, roll);
            self.stats.corrupt_injected.fetch_add(1, Ordering::Relaxed);
        }
        frame
    }

    /// Injects one datagram into the faulty wire: partition/death gates,
    /// then the keyed drop/dup/corrupt/delay/reorder decisions, then the
    /// out-queue.
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
        if let Some((min, max)) = self.plan.delay {
            let (min_ns, span_ns) = (min.as_nanos() as u64, (max - min).as_nanos() as u64);
            let extra = if span_ns == 0 {
                min_ns
            } else {
                min_ns + self.dice.mix(TAG_DELAY, dst.0 as u64 ^ tag, a, b) % (span_ns + 1)
            };
            if extra > 0 {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.delayed
                    .push((self.now + Duration::from_nanos(extra), dst, frame));
                return;
            }
        }
        self.enqueue(dst, frame, tag, a, b);
    }

    /// Final emission stage: the pairwise reordering window, then the
    /// out-queue.
    fn enqueue(&mut self, dst: ProcId, frame: Vec<u8>, tag: u64, a: u64, b: u64) {
        if let Some(slot) = self.holdback.iter().position(|&(_, to, _)| to == dst) {
            let (_, _, held) = self.holdback.swap_remove(slot);
            // Swap: the newer frame overtakes the held one.
            self.emit(dst, frame);
            self.emit(dst, held);
            return;
        }
        if self
            .dice
            .hit(TAG_REORDER, dst.0 as u64 ^ tag, a, b, self.reorder_t)
        {
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            let release = self.now + self.holdback_window();
            self.holdback.push((release, dst, frame));
            return;
        }
        self.emit(dst, frame);
    }

    /// How long a held datagram waits for a swap partner: half the
    /// shortest timer that could resend it — the probe floor, or `rto` if
    /// that is shorter — so the reordering is over before a probe or the
    /// retransmit timer could mask it.
    fn holdback_window(&self) -> Duration {
        probe_floor(&self.plan).min(self.plan.rto) / 2
    }

    fn emit(&mut self, dst: ProcId, frame: Vec<u8>) {
        self.out.push_back(EngineOut::Frame(dst, frame));
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
        let (window, now) = (self.window, self.now);
        let flow = self.tx_flows.entry(dst).or_insert_with(|| FlowTx::new(now));
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
        let now = self.now;
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
                self.out.push_back(EngineOut::Dwell(dwell));
                self.now += dwell;
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
        if !dgram.structurally_valid(self.nodes) {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(flow) = self.tx_flows.get_mut(&src) {
            flow.heard = self.now;
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
                        self.out
                            .push_back(EngineOut::Deliver(NetEvent::Packet(pkt)));
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
                let now = self.now;
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
        let now = self.now;
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

    /// Fires the flow timers due now: retransmits each datagram whose
    /// timeout passed and probes each flow whose probe deadline passed.  A
    /// peer is declared dead once one of its datagrams has spent the
    /// retransmit budget and nothing valid has arrived from it — since
    /// that datagram's original send — for the silence budget; until then
    /// a spent datagram keeps retransmitting, and its timer never runs
    /// past the moment the silence would be complete.  Returns the
    /// earliest timer still armed.
    fn retransmit_due(&mut self) -> Option<Instant> {
        let (max, max_rto, silence) = (self.plan.max_retransmits, self.plan.max_rto, self.silence);
        let now = self.now;
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
                self.out
                    .push_back(EngineOut::Deliver(NetEvent::PeerDead { peer: dst }));
            }
        }
        self.tx_flows
            .values()
            .flat_map(|f| f.unacked.iter().map(|u| u.due).chain(f.probe.deadline()))
            .min()
    }
}

/// Puts the frames of `held` whose release time has come at `now` on `out`
/// (a delayed frame's, or a holdback slot's when no swap partner arrived
/// within the [window](Engine::holdback_window)); returns the earliest
/// release still pending.
fn release_due(held: &mut Held, now: Instant, out: &mut VecDeque<EngineOut>) -> Option<Instant> {
    let (due, kept): (Vec<_>, Vec<_>) = std::mem::take(held)
        .into_iter()
        .partition(|&(at, ..)| at <= now);
    *held = kept;
    out.extend(
        due.into_iter()
            .map(|(_, dst, frame)| EngineOut::Frame(dst, frame)),
    );
    held.iter().map(|&(at, ..)| at).min()
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

    /// Engines for some nodes of a fabric, stepped on a fake clock.  A frame
    /// reaches its destination's engine with zero latency, in the order the
    /// frames were sent; a frame for a node the test plays itself (one
    /// without an engine) waits in `held`.  Each engine's timers are fired
    /// after every step, as the shell fires them.
    struct Router {
        now: Instant,
        stats: Arc<ReliabilityStats>,
        engines: Vec<Option<Engine>>,
        /// Each engine's earliest armed timer.
        wakes: Vec<Option<Instant>>,
        /// Frames for the nodes the test plays.
        held: Vec<Vec<u8>>,
        /// The `sent_at` of each packet delivered to each node's endpoint.
        delivered: Vec<Vec<u64>>,
    }

    impl Router {
        /// An `n`-node fabric with engines for the nodes in `live`.
        fn new(plan: &FaultPlan, n: usize, live: &[usize]) -> Self {
            let (now, stats) = (Instant::now(), Arc::new(ReliabilityStats::default()));
            let engine = |i| Engine::new(ProcId::from_index(i), n, plan, Arc::clone(&stats), now);
            Router {
                engines: (0..n)
                    .map(|i| live.contains(&i).then(|| engine(i)))
                    .collect(),
                now,
                stats: Arc::clone(&stats),
                wakes: vec![None; n],
                held: Vec::new(),
                delivered: vec![Vec::new(); n],
            }
        }

        fn engine(&mut self, i: usize) -> &mut Engine {
            self.engines[i].as_mut().expect("a node with an engine")
        }

        /// Hands `inputs` to `node`'s engine now, then every frame they
        /// cause to its destination, until no frame is in flight.
        fn input(&mut self, node: usize, inputs: impl IntoIterator<Item = EngineIn>) {
            self.pump(
                inputs
                    .into_iter()
                    .map(|input| (node, Some(input)))
                    .collect(),
            );
        }

        /// Steps each engine queued with its input (`None`: its timers
        /// only), queueing every frame that causes for its destination.
        fn pump(&mut self, mut queue: VecDeque<(usize, Option<EngineIn>)>) {
            while let Some((i, input)) = queue.pop_front() {
                let now = self.now;
                if let Some(input) = input {
                    self.engine(i).on_input(now, input);
                    self.carry_out(i, &mut queue);
                }
                let now = self.now;
                self.wakes[i] = self.engine(i).on_timer(now);
                self.carry_out(i, &mut queue);
            }
        }

        fn carry_out(&mut self, i: usize, queue: &mut VecDeque<(usize, Option<EngineIn>)>) {
            while let Some(out) = self.engine(i).poll_output() {
                match out {
                    EngineOut::Frame(to, frame) if self.engines[to.index()].is_some() => {
                        let from = ProcId::from_index(i);
                        queue.push_back((to.index(), Some(EngineIn::Wire(from, frame))));
                    }
                    EngineOut::Frame(_, frame) => self.held.push(frame),
                    EngineOut::Deliver(NetEvent::Packet(p)) => self.delivered[i].push(p.sent_at),
                    EngineOut::Deliver(NetEvent::PeerDead { .. }) => {}
                    EngineOut::Dwell(dwell) => self.now += dwell,
                }
            }
        }

        /// Moves the clock to `at` and fires every engine's timers due by
        /// then; returns the earliest timer left armed.
        fn tick(&mut self, at: Instant) -> Option<Instant> {
            assert!(at >= self.now, "the clock only moves forward");
            self.now = at;
            let live = (0..self.engines.len()).filter(|&i| self.engines[i].is_some());
            self.pump(live.map(|i| (i, None)).collect());
            self.wakes.iter().flatten().min().copied()
        }

        /// Jumps the clock from wake to wake until `done` holds or no timer
        /// is left armed.
        fn run_until(&mut self, done: impl Fn(&Router) -> bool) {
            while let Some(at) = self.wakes.iter().flatten().min().copied() {
                if done(self) {
                    return;
                }
                self.tick(at);
            }
        }

        /// Every frame sent to the nodes the test plays since the last
        /// look, decoded; `None` for one that fails the frame check.
        fn sent_frames(&mut self) -> Vec<Option<Dgram>> {
            let decode = |f: Vec<u8>| decode_frame(&f).ok().map(|b| Dgram::from_bytes(b).unwrap());
            self.held.drain(..).map(decode).collect()
        }

        /// [`Self::sent_frames`], none of them damaged.
        fn sent(&mut self) -> Vec<Dgram> {
            let frames = self.sent_frames().into_iter();
            frames.map(|d| d.expect("clean wire")).collect()
        }
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

    /// Packets `0..n` from node 0 to `to`, each numbered by its `sent_at`.
    fn outbound(to: u16, n: u64) -> impl Iterator<Item = EngineIn> {
        (0..n).map(move |i| {
            EngineIn::Outbound(
                ProcId(to),
                Packet {
                    sent_at: i,
                    ..packet(to)
                },
            )
        })
    }

    /// Node 1's ACK of node 0's flow up to `upto`.
    fn ack(upto: u64) -> EngineIn {
        let flow_dst = ProcId(1);
        EngineIn::Wire(flow_dst, encode_framed(&Dgram::Ack { flow_dst, upto }))
    }

    /// Node 1's NAK of node 0's flow above `upto`.
    fn nak(upto: u64) -> EngineIn {
        let flow_dst = ProcId(1);
        EngineIn::Wire(flow_dst, encode_framed(&Dgram::Nak { flow_dst, upto }))
    }

    #[test]
    fn naks_repair_once_per_timer_period_and_spend_no_attempts() {
        let mut r = Router::new(&FaultPlan::clean(3), 2, &[0]);
        let p1 = ProcId(1);
        r.input(0, [EngineIn::Outbound(p1, packet(1))]);
        let unacked = |r: &mut Router| {
            let u = &r.engine(0).tx_flows[&p1].unacked[0];
            (u.attempts, u.repairs, u.due)
        };
        let first_due = unacked(&mut r).2;
        r.input(0, (0..5).map(|_| nak(0)));
        let (attempts, repairs, due) = unacked(&mut r);
        assert_eq!((attempts, repairs), (0, 1), "one repair per timer period");
        assert!(due >= first_due, "a repair restarts the timer");
        // The original and its one repair; nothing received, so no re-ACK.
        assert!(matches!(
            r.sent()[..],
            [Dgram::Data { seq: 1, .. }, Dgram::Data { seq: 1, .. }]
        ));
        // The timer fires: a new period, so the next NAK may repair again.
        r.tick(due);
        r.input(0, (0..5).map(|_| nak(0)));
        assert_eq!(unacked(&mut r).0, 1, "only the timer spends attempts");
        assert_eq!(unacked(&mut r).1, 2);
        assert_eq!(r.sent().len(), 2, "one timer copy, one repair");
        let snap = r.stats.snapshot();
        assert_eq!((snap.retransmissions, snap.repairs), (1, 2));
        // A NAK acknowledges what it covers.
        r.input(0, [nak(1)]);
        assert!(r.engine(0).tx_flows[&p1].unacked.is_empty());
        assert!(r.sent().is_empty(), "nothing left to repair");
    }

    #[test]
    fn scripted_strikes_count_first_transmissions_only() {
        let plan = FaultPlan::clean(5)
            .with_corrupt_at(ProcId(0), 1, CorruptKind::Truncate)
            .with_corrupt_at(ProcId(0), 2, CorruptKind::GarbageTail)
            .with_corrupt_at(ProcId(0), 3, CorruptKind::BitFlip);
        let mut r = Router::new(&plan, 2, &[0]);
        let p1 = ProcId(1);
        // Each frame node 0 has put on the wire since the last look: the
        // data seq it carries, or `None` when it was struck.
        let frames = |r: &mut Router| -> Vec<Option<u64>> {
            let seq = |d| match d {
                Dgram::Data { seq, .. } => seq,
                other => panic!("node 0 only sends data: {other:?}"),
            };
            r.sent_frames().into_iter().map(|d| d.map(seq)).collect()
        };
        // The peer's NAK for the damaged first original overtakes the
        // second original: the repair goes out first, unstruck and
        // uncounted, and the second strike still hits the second original.
        let send = || EngineIn::Outbound(p1, packet(1));
        r.input(0, [send(), nak(0), send()]);
        assert_eq!(frames(&mut r), [None, Some(1), None]);
        // Timer retransmissions neither advance the ordinal nor get struck;
        // the third strike waits for the next original.  Both timers are
        // due by the later deadline.
        let unacked = &r.engine(0).tx_flows[&p1].unacked;
        let due = unacked.iter().map(|u| u.due).max().expect("two in flight");
        r.tick(due);
        assert_eq!(frames(&mut r), [Some(1), Some(2)]);
        r.input(0, [send()]);
        assert_eq!(frames(&mut r), [None]);
        let snap = r.stats.snapshot();
        assert_eq!(snap.corrupt_injected, 3, "{snap:?}");
        assert_eq!((snap.repairs, snap.retransmissions), (1, 2), "{snap:?}");
    }

    #[test]
    fn receiver_naks_damage_and_each_gap_once_but_not_quarantine() {
        let mut r = Router::new(&FaultPlan::clean(4), 2, &[0]);
        let p1 = ProcId(1);
        let data = |seq| {
            encode_framed(&Dgram::Data {
                flow_src: p1,
                seq,
                packet: packet(0),
            })
        };
        let wire = |frame| EngineIn::Wire(p1, frame);
        // A damaged frame is NAKed to its source address.
        let mut damaged = data(1);
        damaged.truncate(5);
        r.input(0, [wire(damaged)]);
        assert!(matches!(r.sent()[..], [Dgram::Nak { upto: 0, .. }]));
        // Seq 1 is missing: seq 2 shows the gap and NAKs it, seq 3 shows
        // the same gap and only ACKs.
        r.input(0, [wire(data(2)), wire(data(3))]);
        assert!(matches!(
            r.sent()[..],
            [Dgram::Nak { upto: 0, .. }, Dgram::Ack { upto: 0, .. }]
        ));
        // The hole fills; a new one at 5 is NAKed afresh.
        r.input(0, [wire(data(1)), wire(data(5))]);
        assert!(matches!(
            r.sent()[..],
            [Dgram::Ack { upto: 3, .. }, Dgram::Nak { upto: 3, .. }]
        ));
        // A checksum-valid frame that does not decode was not damaged in
        // transit: quarantined, unanswered.
        r.input(0, [wire(encode_frame(&[0xFF, 0, 1]))]);
        assert_eq!(r.stats.snapshot().decode_errors, 1);
        // Nor is a peer already declared dead answered.
        r.engine(0).dead.insert(p1);
        r.input(0, [wire(vec![0; 3])]);
        assert!(r.sent().is_empty());
        assert_eq!(r.stats.snapshot().naks, 3);
    }

    #[test]
    fn scripted_corruption_strikes_exact_frames() {
        // Only node 0's first two frames are mutated (one truncation, one
        // garbage tail).  The receiver NAKs the first; the sender repairs both
        // originals at once (frames 3 and 4, clean), and the second damaged
        // frame's NAK finds them already repaired.  Both packets arrive long
        // before the 1-second RTO, so no timer fires and the injected count is
        // exactly the scripted two.
        let plan = FaultPlan::clean(5)
            .with_rto(Duration::from_secs(1), Duration::from_secs(2))
            .with_corrupt_at(ProcId(0), 1, CorruptKind::Truncate)
            .with_corrupt_at(ProcId(0), 2, CorruptKind::GarbageTail);
        let mut r = Router::new(&plan, 2, &[0, 1]);
        let (start, window) = (r.now, Duration::from_millis(50));
        r.input(0, outbound(1, 2));
        r.run_until(|r| r.delivered[1].len() == 2);
        assert_eq!(r.delivered[1], [0, 1]);
        assert!(r.now - start < window, "repaired inside the window");
        let snap = r.stats.snapshot();
        assert_eq!(snap.corrupt_injected, 2, "{snap:?}");
        assert_eq!(snap.corrupt_dropped, 2, "{snap:?}");
        assert_eq!((snap.retransmissions, snap.repairs), (0, 2), "{snap:?}");
    }

    #[test]
    fn gaps_are_repaired_before_any_timer() {
        // Data is lossy and the RTO is a second, so only NAKs can repair
        // anything before it.  Filler packets behind the first 20 keep
        // every hole among them visible as a sequence gap.  Seed 30 drops
        // six of the 20 originals (seq 1 among them) and none of their
        // first repairs, so all 20 arrive in far less than half an RTO and
        // no timer fires.
        let rto = Duration::from_secs(1);
        let plan = FaultPlan::new(0.15, 30).with_rto(rto, rto);
        let mut r = Router::new(&plan, 2, &[0, 1]);
        let start = r.now;
        r.input(0, outbound(1, 60));
        r.run_until(|r| r.delivered[1].len() >= 20);
        assert_eq!(r.delivered[1][..20], (0..20).collect::<Vec<_>>());
        let (elapsed, snap) = (r.now - start, r.stats.snapshot());
        assert!(elapsed < rto / 2, "took {elapsed:?}: {snap:?}");
        assert_eq!(snap.retransmissions, 0, "{snap:?}");
        assert!(
            snap.wire_drops > 0 && snap.naks > 0 && snap.repairs > 0,
            "{snap:?}"
        );
    }

    #[test]
    fn duplicates_are_suppressed() {
        // With 30 % loss, data gets retransmitted after delivery: the
        // receiver must not see it twice, even once every retransmission
        // window has passed.
        let mut r = Router::new(&FaultPlan::new(0.3, 99), 2, &[0, 1]);
        r.input(0, outbound(1, 100));
        r.run_until(|_| false);
        assert_eq!(r.delivered[1], (0..100).collect::<Vec<_>>());
        assert!(r.stats.snapshot().duplicates > 0);
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
    fn backed_off_doubles_to_attempt_20_then_caps_and_saturates() {
        let (ns, max) = (Duration::from_nanos, Duration::MAX);
        assert_eq!(backed_off(ns(1), 3, max), ns(8));
        assert_eq!(
            backed_off(ns(2), 64, max),
            ns(2 << 20),
            "no doubling past 20"
        );
        assert_eq!(backed_off(ns(1 << 43), 20, max), ns(1 << 63));
        assert_eq!(backed_off(ns(u64::MAX), 1, max), ns(u64::MAX), "saturates");
        assert_eq!(backed_off(ns(3), 5, ns(40)), ns(40), "capped at max_rto");
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
        let mut flow = FlowTx::new(Instant::now());
        assert_eq!(flow.base_rto(&plan), ms(2));
        flow.rtt = Some(fast);
        assert_eq!(flow.base_rto(&plan), ms(2));
        flow.rtt = Some(rtt);
        assert_eq!(flow.base_rto(&plan), us(12_000));
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

    /// Node 0's flow to node 1, created with round-trip estimate `rtt`.
    fn warm(r: &mut Router, rtt: Rtt) {
        let flow = FlowTx {
            rtt: Some(rtt),
            ..FlowTx::new(r.now)
        };
        r.engine(0).tx_flows.insert(ProcId(1), flow);
    }

    #[test]
    fn only_an_acked_original_times_a_round_trip() {
        let mut r = Router::new(&FaultPlan::clean(5), 2, &[0]);
        let p1 = ProcId(1);
        let send = || EngineIn::Outbound(p1, packet(1));
        let rtt = |r: &mut Router| r.engine(0).tx_flows[&p1].rtt;
        // Timer-retransmitted, then acknowledged: no sample.
        r.input(0, [send()]);
        let due = r.engine(0).tx_flows[&p1].unacked[0].due;
        r.tick(due);
        r.input(0, [ack(1)]);
        assert_eq!(rtt(&mut r), None, "retransmitted");
        // NAK-repaired, then acknowledged: no sample.
        r.input(0, [send()]);
        r.input(0, [nak(1), ack(2)]);
        assert_eq!(rtt(&mut r), None, "repaired");
        // A clean original: the first sample.
        r.input(0, [send(), ack(3)]);
        assert!(rtt(&mut r).is_some(), "clean original");
        // Probed, then acknowledged: no sample.
        let known = Rtt {
            srtt: Duration::from_millis(1),
            rttvar: Duration::from_millis(1),
        };
        r.engine(0).tx_flows.get_mut(&p1).expect("flow").rtt = Some(known);
        r.input(0, [send()]);
        let Probe::Armed(at) = r.engine(0).tx_flows[&p1].probe else {
            panic!("a new datagram arms the probe");
        };
        r.tick(at);
        assert_eq!(r.stats.snapshot().probes, 1);
        r.input(0, [ack(4)]);
        assert_eq!(rtt(&mut r), Some(known), "probed");
        // A duplicate ACK retires nothing and times nothing.
        r.input(0, [ack(4)]);
        assert_eq!(rtt(&mut r), Some(known), "duplicate ACK");
        r.input(0, [send()]);
        r.input(0, [ack(5)]);
        assert_ne!(rtt(&mut r), Some(known), "clean original");
        assert_eq!(
            r.sent().len(),
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
        let mut r = Router::new(&FaultPlan::new(0.5, seed), 2, &[0]);
        let srtt = Duration::from_millis(1);
        warm(
            &mut r,
            Rtt {
                srtt,
                rttvar: Duration::from_millis(1),
            },
        );
        r.input(0, [EngineIn::Outbound(p1, packet(1))]);
        assert!(r.sent().is_empty(), "the original is lost");
        let (sent_at, due) = {
            let u = &r.engine(0).tx_flows[&p1].unacked[0];
            (u.sent, u.due)
        };
        assert_eq!(
            r.engine(0).tx_flows[&p1].probe,
            Probe::Armed(sent_at + 2 * srtt),
            "max(2·SRTT, probe floor)"
        );
        assert!(due > sent_at + 2 * srtt, "the probe goes before the timer");
        assert!(r
            .tick(sent_at + 2 * srtt - Duration::from_nanos(1))
            .is_some());
        assert!(r.sent().is_empty(), "not yet due");
        r.tick(sent_at + 2 * srtt);
        assert!(matches!(r.sent()[..], [Dgram::Data { seq: 1, .. }]));
        let u = &r.engine(0).tx_flows[&p1].unacked[0];
        assert_eq!(
            (u.attempts, u.repairs),
            (0, 1),
            "a repair ordinal, no attempt"
        );
        assert_eq!(r.engine(0).tx_flows[&p1].probe, Probe::Spent);
        // Spent until the ACK point moves: neither a later deadline nor a
        // new datagram re-arms it.
        r.tick(due - Duration::from_nanos(1));
        r.input(0, [EngineIn::Outbound(p1, packet(1))]);
        assert_eq!(r.engine(0).tx_flows[&p1].probe, Probe::Spent);
        r.sent();
        let snap = r.stats.snapshot();
        assert_eq!((snap.probes, snap.retransmissions, snap.repairs), (1, 0, 0));
        // ACK(1) moves the ACK point: the newest datagram, seq 2, is probed
        // next, once.
        r.input(0, [ack(1)]);
        let Probe::Armed(at) = r.engine(0).tx_flows[&p1].probe else {
            panic!("an ACK advance re-arms the probe");
        };
        r.tick(at);
        r.tick(at + srtt);
        assert_eq!(r.stats.snapshot().probes, 2);
        assert_eq!(r.engine(0).tx_flows[&p1].unacked[0].repairs, 1);
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
            let mut r = Router::new(&plan, 2, &[0]);
            if let Some(rtt) = rtt {
                warm(&mut r, rtt);
            }
            r.input(0, [EngineIn::Outbound(ProcId(1), packet(1))]);
            let sent_at = r.engine(0).tx_flows[&ProcId(1)].unacked[0].sent;
            // Fire every timer at its deadline until none is left: the
            // peer is dead and its flow abandoned.
            r.run_until(|_| false);
            assert_eq!(r.stats.snapshot().peers_declared_dead, 1);
            let died = r.now - sent_at;
            assert!(died >= budget, "{rtt:?}: dead after {died:?}");
            assert!(
                died <= budget + plan.max_rto,
                "{rtt:?}: dead after {died:?}"
            );
            assert!(r.engine(0).dead.contains(&ProcId(1)));
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
        let mut r = Router::new(&plan, 2, &[0]);
        let p1 = ProcId(1);
        r.input(0, [EngineIn::Outbound(p1, packet(1))]);
        let until = r.now + 4 * silence_budget(&plan);
        while r.now < until {
            r.input(0, [ack(0)]);
            r.tick(r.now + ms(1));
        }
        assert!(r.engine(0).tx_flows[&p1].unacked[0].attempts > plan.max_retransmits);
        assert_eq!(r.stats.snapshot().peers_declared_dead, 0);
        assert!(r.engine(0).dead.is_empty());
    }
}
