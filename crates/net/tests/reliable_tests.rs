//! Tests of the reliable-over-lossy transport (CVM's UDP layer).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cvm_net::{
    ByteBreakdown, FaultPlan, NetConfig, NetError, Network, ReliabilityStats, TrafficClass,
};
use cvm_vclock::ProcId;

fn payload(i: u32) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

fn send_n(eps: &[cvm_net::Endpoint], from: usize, to: usize, n: u32) {
    let tx = eps[from].sender();
    for i in 0..n {
        tx.send(
            ProcId::from_index(to),
            u64::from(i),
            ByteBreakdown::single(TrafficClass::Data, 4),
            payload(i),
        )
        .unwrap();
    }
}

fn recv_all(eps: &[cvm_net::Endpoint], at: usize, n: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let pkt = eps[at].recv().expect("delivery");
            u32::from_le_bytes(pkt.payload[..4].try_into().unwrap())
        })
        .collect()
}

/// Waits until all but `live` of the fabric's engine threads have exited.
/// Every engine owns one reference to the stats block and nothing else
/// does, so the count above the test's own is the number still running.
/// Once it reaches zero the counters are final.
fn await_engines(rstats: &Arc<ReliabilityStats>, live: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(rstats) > 1 + live {
        assert!(
            Instant::now() < deadline,
            "{} engines still running, expected {live}",
            Arc::strong_count(rstats) - 1
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn zero_loss_behaves_like_direct() {
    // An RTO no scheduler stall reaches: with nothing lost, no timer fires.
    let rto = Duration::from_secs(60);
    let plan = FaultPlan::new(0.0, 1).with_rto(rto, rto);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 50);
    assert_eq!(recv_all(&eps, 1, 50), (0..50).collect::<Vec<_>>());
    let snap = rstats.snapshot();
    assert_eq!(
        (snap.wire_drops, snap.retransmissions, snap.duplicates),
        (0, 0, 0)
    );
}

#[test]
fn heavy_loss_still_delivers_everything_in_order() {
    for seed in [1u64, 2, 3] {
        let (eps, _, rstats) =
            Network::with_loss(3, NetConfig::default(), FaultPlan::new(0.4, seed));
        send_n(&eps, 0, 2, 200);
        send_n(&eps, 1, 2, 200);
        // Per-flow FIFO must survive 40% wire loss.
        let mut got0 = Vec::new();
        let mut got1 = Vec::new();
        for _ in 0..400 {
            let pkt = eps[2].recv().expect("delivery under loss");
            let v = u32::from_le_bytes(pkt.payload[..4].try_into().unwrap());
            if pkt.src == ProcId(0) {
                got0.push(v);
            } else {
                got1.push(v);
            }
        }
        assert_eq!(got0, (0..200).collect::<Vec<_>>(), "seed {seed}");
        assert_eq!(got1, (0..200).collect::<Vec<_>>(), "seed {seed}");
        let snap = rstats.snapshot();
        assert!(snap.wire_drops > 0, "the wire must actually drop");
        assert!(
            snap.retransmissions > 0,
            "drops must be repaired by retransmission"
        );
    }
}

#[test]
fn bidirectional_flows_are_independent() {
    let (eps, _, _) = Network::with_loss(2, NetConfig::default(), FaultPlan::new(0.2, 7));
    send_n(&eps, 0, 1, 64);
    send_n(&eps, 1, 0, 64);
    assert_eq!(recv_all(&eps, 1, 64), (0..64).collect::<Vec<_>>());
    assert_eq!(recv_all(&eps, 0, 64), (0..64).collect::<Vec<_>>());
}

#[test]
fn loss_pattern_is_reproducible_per_seed() {
    let run = |seed| {
        let (eps, _, rstats) =
            Network::with_loss(2, NetConfig::default(), FaultPlan::new(0.25, seed));
        send_n(&eps, 0, 1, 100);
        let _ = recv_all(&eps, 1, 100);
        // Shut the fabric down so the drop count is final.
        drop(eps);
        await_engines(&rstats, 0);
        rstats.snapshot().wire_drops
    };
    // The wire-drop sequence for the initial transmissions is seed-driven;
    // retransmission timing adds wall-clock noise, so compare only that
    // drops occur and differ across seeds (coarse determinism check).
    let a = run(5);
    let b = run(6);
    assert!(a > 0 && b > 0);
}

#[test]
fn same_plan_and_seed_reproduce_identical_stats() {
    // Every fault decision is keyed by datagram identity (destination,
    // sequence, attempt), never call order or wall clock, so two runs of
    // the same (plan, seed) must produce byte-identical statistics.  The
    // plan avoids the retransmission path (no drops, one-second RTO):
    // timer-driven resends fire on wall-clock boundaries, which makes
    // their *counts* scheduling-dependent even though each decision stays
    // keyed — the deterministic contract is the injection stream.
    let run = |seed: u64| {
        let plan = FaultPlan::clean(seed)
            .with_duplication(0.2)
            .with_rto(Duration::from_secs(1), Duration::from_secs(2));
        let (mut eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 150);
        assert_eq!(recv_all(&eps, 1, 150), (0..150).collect::<Vec<_>>());
        // Shut down sender first.  Its engine exits once all 150 are
        // acknowledged, by which time every data copy it injected sits in
        // node 1's inbox; node 1's close notice then queues behind them,
        // so node 1 handles each one (and injects every ACK duplicate)
        // before it exits.
        drop(eps.remove(0));
        await_engines(&rstats, 1);
        drop(eps);
        await_engines(&rstats, 0);
        // How many of node 1's trailing ACKs found node 0 already gone
        // (shutdown order) and whether a tail-loss probe fired (a host
        // stall past the probe timeout) are the set's `#[timing]` counts.
        rstats.snapshot().schedule_free(false)
    };
    let first = run(0xFEED);
    let second = run(0xFEED);
    assert_eq!(first, second, "fault sequence must be seed-deterministic");
    assert!(first.dup_injected > 0, "the plan must actually duplicate");
    assert!(first.duplicates > 0, "duplicates must reach the suppressor");
    assert_eq!(first.wire_drops, 0);
    assert_eq!(first.retransmissions, 0);
    let other = run(0xBEEF);
    assert_ne!(first, other, "different seeds must differ");
}

#[test]
fn corruption_is_repaired_by_retransmission() {
    // A quarter of all frames are mutated on the wire; the receiver's
    // checksum rejects every one of them and NAKs the sender, whose repairs
    // (and, behind them, the timer) fill the gaps, so delivery stays
    // complete, in order, and duplicate-free.
    for seed in [21u64, 22, 23] {
        let plan = FaultPlan::clean(seed).with_corruption(0.25);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 150);
        assert_eq!(
            recv_all(&eps, 1, 150),
            (0..150).collect::<Vec<_>>(),
            "seed {seed}"
        );
        std::thread::sleep(Duration::from_millis(20));
        let snap = rstats.snapshot();
        assert!(snap.corrupt_injected > 0, "seed {seed}: wire must corrupt");
        assert!(
            snap.corrupt_dropped > 0,
            "seed {seed}: checksum must reject"
        );
        assert_eq!(
            snap.decode_errors, 0,
            "seed {seed}: damage leaked past the frame gate"
        );
        assert!(
            snap.repairs > 0,
            "seed {seed}: damaged frames must be NAKed and repaired"
        );
    }
}

#[test]
fn tail_loss_is_probed_not_timed_out() {
    // Five round trips warm node 0's round-trip estimate; seed 8 delivers
    // their originals and drops the sixth datagram's, the flow's tail.  No
    // later datagram shows the hole, so no NAK comes; the retransmission
    // timer is at least the 1 s rto away.  The tail-loss probe resends it
    // once no ACK has moved for max(2·SRTT, 200 µs, rto/32 = 31.25 ms).
    let plan = FaultPlan::new(0.2, 8).with_rto(Duration::from_secs(1), Duration::from_secs(2));
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    let tx = eps[0].sender();
    let send = |i: u32| {
        tx.send(
            ProcId(1),
            0,
            ByteBreakdown::single(TrafficClass::Data, 4),
            payload(i),
        )
        .unwrap();
    };
    for i in 0..5 {
        send(i);
        assert_eq!(recv_all(&eps, 1, 1), vec![i]);
    }
    let started = Instant::now();
    send(5);
    let pkt = eps[1]
        .recv_timeout(Duration::from_secs(5))
        .expect("the tail arrives");
    let elapsed = started.elapsed();
    assert_eq!(pkt.payload, payload(5));
    let snap = rstats.snapshot();
    assert!(
        elapsed < Duration::from_millis(100),
        "took {elapsed:?}: {snap:?}"
    );
    assert_eq!(
        snap.wire_drops, 1,
        "seed 8 no longer drops the tail: {snap:?}"
    );
    assert_eq!(snap.retransmissions, 0, "{snap:?}");
    assert!(snap.probes >= 1, "{snap:?}");
}

#[test]
fn nak_repairs_stay_bounded_under_heavy_corruption() {
    // Nine frames in ten are damaged — data, ACKs and NAKs alike — so
    // nearly every NAK is answered by a repair that is itself damaged and
    // NAKed.  The one-repair-per-timer-period limit bounds that cascade:
    // each datagram is repaired at most once before the timer first fires
    // and once per retransmission after, so repairs never exceed
    // retransmissions plus the datagram count.
    let plan = FaultPlan::clean(77)
        .with_corruption(0.9)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(1000);
    let (mut eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 20);
    assert_eq!(recv_all(&eps, 1, 20), (0..20).collect::<Vec<_>>());
    // Node 0's engine exits once all 20 are acknowledged; then the
    // counters it drives are final.
    let receiver = eps.remove(1);
    drop(eps);
    await_engines(&rstats, 1);
    let snap = rstats.snapshot();
    drop(receiver);
    assert_eq!(snap.peers_declared_dead, 0, "{snap:?}");
    assert!(snap.repairs > 0, "{snap:?}");
    assert!(snap.repairs <= snap.retransmissions + 20, "{snap:?}");
}

#[test]
fn lost_ack_copies_do_not_doom_their_resends() {
    // One packet, 30 % ACK loss, a budget of 8 retransmissions.  The
    // packet arrives at once, so node 1 is healthy: only if every copy of
    // `ACK(1)` were lost — nine in a row — could node 0 declare it dead.
    // Each copy draws its own dice, so over 40 seeds that never happens.
    // Were the copies keyed by the ACK value alone, one copy's fate would
    // be every copy's, and about a quarter of these seeds would kill node 1.
    for seed in 0..40u64 {
        let plan = FaultPlan::clean(seed)
            .with_ack_loss(0.3)
            .with_rto(Duration::from_millis(1), Duration::from_millis(4))
            .with_max_retransmits(8);
        let (mut eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 1);
        assert_eq!(recv_all(&eps, 1, 1), vec![0]);
        // Node 0's engine exits once the packet is acknowledged or node 1
        // is declared dead, whichever comes first.
        let receiver = eps.remove(1);
        drop(eps);
        await_engines(&rstats, 1);
        let snap = rstats.snapshot();
        drop(receiver);
        assert_eq!(snap.peers_declared_dead, 0, "seed {seed}: {snap:?}");
    }
}

#[test]
fn killed_node_is_declared_dead_by_its_peers() {
    // Node 1's engine dies after a handful of events; node 0's
    // retransmissions exhaust and it learns P1 is dead instead of
    // retrying forever.
    let plan = FaultPlan::clean(7)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_kill(ProcId(1), 3);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 20);
    match eps[0].recv() {
        Err(NetError::PeerDead { peer }) => assert_eq!(peer, ProcId(1)),
        other => panic!("expected peer-dead notification, got {other:?}"),
    }
    assert!(rstats.snapshot().peers_declared_dead >= 1);
    // The killed node's endpoint drains whatever arrived before the kill,
    // then reports its engine gone.
    loop {
        match eps[1].recv() {
            Ok(_) => continue,
            Err(NetError::Disconnected) => break,
            other => panic!("expected disconnect at the killed node, got {other:?}"),
        }
    }
}

#[test]
fn partitioned_node_stops_exchanging_datagrams() {
    // Node 1 partitions immediately: everything it sends or receives is
    // dropped on the floor, and node 0 eventually gives up on it.
    let plan = FaultPlan::clean(11)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_partition(ProcId(1), 0);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 10);
    match eps[0].recv() {
        Err(NetError::PeerDead { peer }) => assert_eq!(peer, ProcId(1)),
        other => panic!("expected peer-dead notification, got {other:?}"),
    }
    let snap = rstats.snapshot();
    assert!(snap.partition_drops > 0, "partition must eat datagrams");
    assert!(eps[1].try_recv().is_err(), "nothing crosses the partition");
}

#[test]
fn transient_partition_heals_and_flow_resumes() {
    // Node 1 is cut off for a window of its own wire-datagram stream and
    // then healed.  Retransmissions bridge the outage: every datagram
    // still arrives, in order, without node 1 ever being declared dead.
    let plan = FaultPlan::clean(13)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(40)
        .with_partition_healed(ProcId(1), 3, 20);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 30);
    assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
    let snap = rstats.snapshot();
    assert!(snap.partition_drops > 0, "the window must eat datagrams");
    assert_eq!(snap.partitions_healed, 1, "the heal must be observed once");
    assert_eq!(snap.peers_declared_dead, 0, "a healed node is not dead");
}

#[test]
fn multiple_partition_windows_on_one_node_all_apply() {
    // Two disjoint outage windows scripted against the same node: both
    // must arm (the plan is not first-match-wins) and both must heal.
    let plan = FaultPlan::clean(17)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(60)
        .with_partition_healed(ProcId(1), 3, 12)
        .with_partition_healed(ProcId(1), 25, 40);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 40);
    assert_eq!(recv_all(&eps, 1, 40), (0..40).collect::<Vec<_>>());
    let snap = rstats.snapshot();
    assert_eq!(snap.partitions_healed, 2, "both windows must open and heal");
    assert!(snap.partition_drops > 0);
}

#[test]
fn heal_accounting_is_deterministic_per_plan_and_seed() {
    // Window membership is a pure function of the node-local wire-datagram
    // ordinal, so two runs of the same (plan, seed) agree exactly on how
    // many windows healed — even though retransmission *timing* is
    // wall-clock noise.
    let run = |seed: u64| {
        let plan = FaultPlan::clean(seed)
            .with_rto(Duration::from_millis(1), Duration::from_millis(4))
            .with_max_retransmits(40)
            .with_partition_healed(ProcId(1), 5, 18);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 30);
        assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
        rstats.snapshot().partitions_healed
    };
    assert_eq!(run(0xACE), run(0xACE));
    assert_eq!(run(0xACE), 1);
}

#[test]
fn capacity_one_link_delivers_in_order_with_bounded_queue() {
    // The tightest possible credit window: one unacked datagram per flow.
    // 100 sends must still arrive complete and in order, with the in-flight
    // depth never exceeding the capacity.
    let plan = FaultPlan::clean(5).with_link_capacity(1);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 100);
    assert_eq!(recv_all(&eps, 1, 100), (0..100).collect::<Vec<_>>());
    use std::sync::atomic::Ordering;
    assert!(
        rstats.queue_high_water.load(Ordering::Relaxed) <= 1,
        "window bound violated"
    );
    assert!(
        rstats.credit_stalls.load(Ordering::Relaxed) > 0,
        "100 sends through a 1-deep window must stall"
    );
    // The sender's engine lowers the gauge just after it puts the last
    // stalled packet on the wire, so the receiver can hold all 100 first;
    // an engine exits only with its queues empty, so read it after that.
    drop(eps);
    await_engines(&rstats, 0);
    assert_eq!(
        rstats.credit_stalled_now.load(Ordering::Relaxed),
        0,
        "all stalls drained by completion"
    );
}

#[test]
fn slow_consumer_cannot_exhaust_sender_queues() {
    // Node 1 dwells 2 ms per arrival from its very first datagram; the
    // sender's credit window (capacity 2) closes against it instead of
    // buffering without bound, and everything still arrives in order.
    let plan = FaultPlan::clean(9)
        .with_link_capacity(2)
        .with_slow_consumer(ProcId(1), 0, Duration::from_millis(2));
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 30);
    assert_eq!(recv_all(&eps, 1, 30), (0..30).collect::<Vec<_>>());
    use std::sync::atomic::Ordering;
    assert!(
        rstats.queue_high_water.load(Ordering::Relaxed) <= 2,
        "a slow consumer must not deepen the in-flight window"
    );
    assert!(
        rstats.credit_stalls.load(Ordering::Relaxed) > 0,
        "the dwell must close the window at least once"
    );
}

#[test]
fn credit_window_is_invisible_to_loss_repair() {
    // Capacity composes with a lossy wire: drops are still repaired by
    // retransmission (which bypasses the window — those bytes are already
    // accounted in flight) and per-flow FIFO holds.
    for capacity in [1u32, 3] {
        let plan = FaultPlan::new(0.3, 21).with_link_capacity(capacity);
        let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
        send_n(&eps, 0, 1, 80);
        assert_eq!(
            recv_all(&eps, 1, 80),
            (0..80).collect::<Vec<_>>(),
            "capacity {capacity}"
        );
        let snap = rstats.snapshot();
        assert!(snap.wire_drops > 0, "the wire must actually drop");
        assert!(
            snap.retransmissions > 0,
            "drops must be repaired under a finite window"
        );
        use std::sync::atomic::Ordering;
        assert!(rstats.queue_high_water.load(Ordering::Relaxed) <= u64::from(capacity));
    }
}

#[test]
fn held_frame_leaves_within_the_window_despite_other_traffic() {
    // Nearly every frame is held for reordering.  Node 0's only packet to
    // node 1 has no swap partner, so it must be released by its own timer
    // after the holdback window, half the probe floor (rto/32, so 3.125
    // ms) — even though the engine never goes idle, being kept busy with
    // traffic for node 2 — and well before the retransmit timer (>= rto)
    // could push it out instead.
    let rto = Duration::from_millis(200);
    let plan = FaultPlan::clean(3)
        .with_reordering(0.99)
        .with_rto(rto, rto * 2);
    let (eps, _, rstats) = Network::with_loss(3, NetConfig::default(), plan);
    let started = Instant::now();
    send_n(&eps, 0, 1, 1);
    let tx = eps[0].sender();
    let arrived = loop {
        tx.send(ProcId(2), 0, ByteBreakdown::default(), Vec::new())
            .unwrap();
        match eps[1].recv_timeout(Duration::from_millis(1)) {
            Ok(_) => break started.elapsed(),
            Err(NetError::Empty) => assert!(started.elapsed() < rto * 4, "held frame never left"),
            Err(e) => panic!("unexpected {e:?}"),
        }
    };
    assert!(arrived >= rto / 64, "seed 3 no longer holds the frame");
    assert_eq!(
        rstats.snapshot().retransmissions,
        0,
        "released by a retransmission after {arrived:?}, not by the holdback timer"
    );
}

#[test]
fn packets_sent_before_the_last_sender_drops_all_arrive() {
    // The close notice queues behind the 100 packets in node 0's inbox, and
    // the engine keeps repairing losses until every one is acknowledged.
    let (mut eps, _, _) = Network::with_loss(2, NetConfig::default(), FaultPlan::new(0.25, 31));
    send_n(&eps, 0, 1, 100);
    drop(eps.remove(0));
    // Node 1's endpoint is now `eps[0]`.
    assert_eq!(recv_all(&eps, 0, 100), (0..100).collect::<Vec<_>>());
}

#[test]
fn engines_exit_once_the_last_endpoint_is_dropped() {
    // An idle fabric: engines blocked with no timer armed must still wake
    // for the close notice.
    let (eps, _, rstats) = Network::with_loss(3, NetConfig::default(), FaultPlan::clean(1));
    assert_eq!(Arc::strong_count(&rstats), 4, "one reference per engine");
    drop(eps);
    await_engines(&rstats, 0);

    // A fabric with a killed peer: the survivor holds unacknowledged data
    // for it, and exits once the retransmit budget is spent — not never.
    let plan = FaultPlan::clean(7)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_kill(ProcId(1), 3);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 20);
    drop(eps);
    await_engines(&rstats, 0);
    assert_eq!(rstats.snapshot().peers_declared_dead, 1);
}

#[test]
fn packets_for_a_peer_already_declared_dead_are_dropped_not_kept() {
    // Node 0 learns that node 1 is dead and only then sends it more.  Those
    // packets can never be acknowledged: the engine must not keep them (it
    // would never drain, and their long-expired timers would have it wake
    // without pause), so it still exits when its endpoint goes.
    let plan = FaultPlan::clean(7)
        .with_rto(Duration::from_millis(1), Duration::from_millis(4))
        .with_max_retransmits(6)
        .with_kill(ProcId(1), 3);
    let (eps, _, rstats) = Network::with_loss(2, NetConfig::default(), plan);
    send_n(&eps, 0, 1, 20);
    assert_eq!(
        eps[0].recv().unwrap_err(),
        NetError::PeerDead { peer: ProcId(1) }
    );
    let retransmitted = rstats.snapshot().retransmissions;
    send_n(&eps, 0, 1, 5);
    drop(eps);
    await_engines(&rstats, 0);
    let snap = rstats.snapshot();
    assert_eq!(snap.peers_declared_dead, 1);
    assert_eq!(snap.retransmissions, retransmitted);
    assert!(snap.partition_drops >= 5);
}

#[test]
fn kill_ordinal_ignores_the_close_notice() {
    // Node 1 dies at its 8th event.  Its first is an outbound packet to
    // node 2 (killed by that packet's arrival, so it never acknowledges and
    // node 1 stays undrained); the rest are data frames from node 0.  Six
    // of those are handled before the kill whether or not node 1's senders
    // were dropped, and their close notice queued, in between.
    let delivered_before_kill = |drop_senders_first: bool| {
        let plan = FaultPlan::clean(19)
            .with_rto(Duration::from_secs(1), Duration::from_secs(2))
            .with_max_retransmits(1)
            .with_kill(ProcId(2), 1)
            .with_kill(ProcId(1), 8);
        let (mut eps, _, rstats) = Network::with_loss(3, NetConfig::default(), plan);
        send_n(&eps, 1, 2, 1);
        let ep1 = eps.remove(1);
        if drop_senders_first {
            drop(ep1);
            send_n(&eps, 0, 1, 20);
        } else {
            send_n(&eps, 0, 1, 20);
            drop(ep1);
        }
        // Only node 0's engine outlives the two kills.
        await_engines(&rstats, 1);
        rstats.delivered.load(std::sync::atomic::Ordering::Relaxed)
    };
    assert_eq!(delivered_before_kill(false), 6);
    assert_eq!(delivered_before_kill(true), 6);
}
