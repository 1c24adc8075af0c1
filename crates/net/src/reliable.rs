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
//!   [`decode_frame`](crate::wire::decode_frame)), so corruption is
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
//! # Layout
//!
//! * `plan.rs` holds the [`FaultPlan`] and the keyed dice that draw every
//!   injected fault;
//! * `reliable/engine.rs` is the protocol: a pure state machine, one per
//!   node, that is handed the time of each step and leaves the frames,
//!   deliveries and dwells it decides on an out-queue — its unit tests
//!   step engines on a fake clock;
//! * this file is the shell: it gives each engine a thread, reads the
//!   clock, blocks on the node's inbox until an input arrives or the
//!   engine's earliest timer is due, and carries the out-queue out.
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
//! [`FaultPlan`]: crate::FaultPlan

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Instant;

use cvm_vclock::ProcId;

use crate::link::{metered_link, LinkRx, LinkTx};
use crate::{FaultPlan, NetError, NetEvent, Packet};

mod engine;

use engine::{Engine, EngineIn, EngineOut};

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
    let now = Instant::now();
    for (i, inbox) in inboxes.into_iter().enumerate() {
        let (deliver_tx, deliver_rx) = metered_link(stats.link_gauge());
        outbounds.push(Outbound {
            inbox: wire_txs[i].clone(),
        });
        deliver_rxs.push(deliver_rx);
        let node = ProcId::from_index(i);
        let engine = Engine::new(node, n, &plan, Arc::clone(&stats), now);
        let wire_txs = wire_txs.clone();
        std::thread::Builder::new()
            .name(format!("reliability-{i}"))
            .spawn(move || run(engine, node, inbox, wire_txs, deliver_tx))
            .expect("spawn reliability engine");
    }
    (outbounds, deliver_rxs, stats)
}

/// Steps `node`'s engine on its own thread: the transport's only reader of
/// the clock and of an inbox.  `inbox` carries the node's outbound packets,
/// wire arrivals and close notice in arrival order; `wire_txs` is the faulty
/// wire, every node's inbox (this one's included); `deliver_tx` feeds the
/// application endpoint in-order packets and peer deaths.
fn run(
    mut engine: Engine,
    node: ProcId,
    inbox: LinkRx<EngineIn>,
    wire_txs: Vec<LinkTx<EngineIn>>,
    deliver_tx: LinkTx<NetEvent>,
) {
    // Carries out the engine's decisions in the order it made them.
    let carry_out = |engine: &mut Engine| {
        while let Some(out) = engine.poll_output() {
            match out {
                EngineOut::Frame(dst, frame) => {
                    // A closed peer means shutdown is in progress; count it
                    // so shutdown loss is distinguishable from wire loss.
                    if wire_txs[dst.index()]
                        .send(EngineIn::Wire(node, frame))
                        .is_err()
                    {
                        engine.stats().peer_closed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // The application endpoint outliving us is not required
                // during shutdown.
                EngineOut::Deliver(event) => {
                    let _ = deliver_tx.send(event);
                }
                EngineOut::Dwell(dwell) => std::thread::sleep(dwell),
            }
        }
    };
    // Event loop: block on the inbox until a message arrives or the
    // earliest armed timer is due — with no timer armed, indefinitely.
    // Exits once the last sender is gone and every flow is drained, or at
    // the scripted kill point, dropping every channel on the way out (a
    // killed node's peers detect the death through their retransmit
    // budgets).  The inbox cannot disconnect first: `wire_txs` holds a
    // sender to it.
    let mut wake: Option<Instant> = None;
    loop {
        let input = match wake {
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => inbox.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match input {
            Ok(input) => {
                engine.on_input(Instant::now(), input);
                carry_out(&mut engine);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        wake = engine.on_timer(Instant::now());
        carry_out(&mut engine);
        if engine.halted() {
            return;
        }
    }
}
