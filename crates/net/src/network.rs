//! Endpoints and links.

use std::fmt;
use std::sync::Arc;

use crossbeam::channel::TryRecvError;
use cvm_vclock::ProcId;

use crate::link::{metered_link, LinkRx, LinkTx};
use crate::reliable::Outbound;
use crate::stats::{ByteBreakdown, NetStats, TrafficClass};

/// Fixed per-message header overhead, modelling the UDP/IP encapsulation of
/// CVM's end-to-end protocol (8-byte UDP + 20-byte IP header).
pub const HEADER_BYTES: u64 = 28;
// (Re-exported below via the crate root so documentation links resolve.)

/// Network configuration.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Maximum encoded message size.
    ///
    /// The paper notes (§5.3) that read notices pushed barrier messages to
    /// the system maximum, capping input sizes; exceeding this limit is a
    /// hard error just as it was for CVM.
    pub max_msg_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // Generous default; experiments that model the paper's limit
            // lower it.
            max_msg_bytes: 4 << 20,
        }
    }
}

/// Errors from link operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Encoded message exceeded [`NetConfig::max_msg_bytes`].
    MsgTooLarge {
        /// Encoded size of the offending message.
        size: u64,
        /// Configured maximum.
        max: u64,
    },
    /// The destination endpoint no longer exists.
    Disconnected,
    /// No message was ready (non-blocking receive only).
    Empty,
    /// The reliability layer declared `peer` dead (retransmit budget
    /// exhausted); traffic to and from it is abandoned.
    PeerDead {
        /// The dead peer.
        peer: ProcId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::MsgTooLarge { size, max } => {
                write!(f, "message of {size} bytes exceeds system maximum of {max}")
            }
            NetError::Disconnected => write!(f, "peer endpoint disconnected"),
            NetError::Empty => write!(f, "no message ready"),
            NetError::PeerDead { peer } => {
                write!(f, "peer P{} declared dead by the reliability layer", peer.0)
            }
        }
    }
}

impl std::error::Error for NetError {}

/// One delivered message.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Sending process.
    pub src: ProcId,
    /// Destination process.
    pub dst: ProcId,
    /// Sender's virtual time at transmission (cycles); used by the
    /// receiver's virtual clock to model latency.
    pub sent_at: u64,
    /// Byte accounting for this message (payload split by class, plus the
    /// header under [`TrafficClass::Control`]).
    pub breakdown: ByteBreakdown,
    /// Encoded message body.
    pub payload: Vec<u8>,
}

// On the reliable transport a packet crosses the simulated wire as bytes
// inside a checksummed frame (see [`crate::wire::encode_frame`]), so it
// needs an explicit wire form like any protocol structure.
crate::wire! { struct Packet { src, dst, sent_at, breakdown, payload } }

/// What an endpoint's receive channel carries: ordinary packets, plus
/// failure notifications from the reliability layer.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// A delivered message.
    Packet(Packet),
    /// The reliability layer exhausted its retransmit budget to `peer`
    /// and declared it dead.
    PeerDead {
        /// The dead peer.
        peer: ProcId,
    },
}

/// How packets leave a sender.
#[derive(Clone)]
enum Transport {
    /// Straight into the destination's channel (a reliable, metered link).
    Direct(Arc<Vec<LinkTx<NetEvent>>>),
    /// Through the owning node's reliability engine (lossy wire
    /// underneath; see [`crate::reliable`]).  Shared by every clone of the
    /// node's sender, so the engine hears when the last one is dropped.
    Reliable(Arc<Outbound>),
}

/// Cloneable sending half bound to a source process.
#[derive(Clone)]
pub struct NetSender {
    src: ProcId,
    transport: Transport,
    fanout: usize,
    stats: Arc<NetStats>,
    config: NetConfig,
}

impl NetSender {
    /// Sends `payload` to `dst`.
    ///
    /// `breakdown` must classify exactly the payload bytes; the fixed
    /// [`HEADER_BYTES`] are added under [`TrafficClass::Control`]
    /// automatically.
    ///
    /// # Errors
    ///
    /// [`NetError::MsgTooLarge`] if the message exceeds the configured
    /// maximum, [`NetError::Disconnected`] if `dst` is gone.
    ///
    /// # Panics
    ///
    /// Panics if `breakdown` does not sum to `payload.len()` — a protocol
    /// accounting bug.
    pub fn send(
        &self,
        dst: ProcId,
        sent_at: u64,
        mut breakdown: ByteBreakdown,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        assert_eq!(
            breakdown.total(),
            payload.len() as u64,
            "byte breakdown does not match payload size"
        );
        let size = payload.len() as u64 + HEADER_BYTES;
        if size > self.config.max_msg_bytes {
            return Err(NetError::MsgTooLarge {
                size,
                max: self.config.max_msg_bytes,
            });
        }
        breakdown.add(TrafficClass::Control, HEADER_BYTES);
        self.stats.record(&breakdown);
        let pkt = Packet {
            src: self.src,
            dst,
            sent_at,
            breakdown,
            payload,
        };
        match &self.transport {
            Transport::Direct(txs) => txs[dst.index()]
                .send(NetEvent::Packet(pkt))
                .map_err(|_| NetError::Disconnected),
            Transport::Reliable(outbound) => outbound.send(dst, pkt),
        }
    }

    /// The bound source process.
    pub fn src(&self) -> ProcId {
        self.src
    }

    /// Rebinds the sender to a different source process.
    ///
    /// Used by per-node helper threads that send on behalf of the node.
    #[must_use]
    pub fn with_src(&self, src: ProcId) -> NetSender {
        NetSender {
            src,
            ..self.clone()
        }
    }

    /// Number of endpoints in the network.
    pub fn fanout(&self) -> usize {
        self.fanout
    }
}

/// Receiving endpoint of one process.
pub struct Endpoint {
    id: ProcId,
    sender: NetSender,
    rx: LinkRx<NetEvent>,
}

impl Endpoint {
    /// The owning process.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// A cloneable sender bound to this process.
    pub fn sender(&self) -> NetSender {
        self.sender.clone()
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] once every sender is gone;
    /// [`NetError::PeerDead`] when the reliability layer declares a peer
    /// dead (the endpoint remains usable for surviving peers).
    pub fn recv(&self) -> Result<Packet, NetError> {
        match self.rx.recv() {
            Ok(NetEvent::Packet(pkt)) => Ok(pkt),
            Ok(NetEvent::PeerDead { peer }) => Err(NetError::PeerDead { peer }),
            Err(_) => Err(NetError::Disconnected),
        }
    }

    /// Blocks until a message arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::Empty`] on timeout, plus everything [`Endpoint::recv`]
    /// can return.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Packet, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(NetEvent::Packet(pkt)) => Ok(pkt),
            Ok(NetEvent::PeerDead { peer }) => Err(NetError::PeerDead { peer }),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(NetError::Empty),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`NetError::Empty`] if no message is ready, [`NetError::Disconnected`]
    /// once every sender is gone, [`NetError::PeerDead`] on a peer-death
    /// notification.
    pub fn try_recv(&self) -> Result<Packet, NetError> {
        match self.rx.try_recv() {
            Ok(NetEvent::Packet(pkt)) => Ok(pkt),
            Ok(NetEvent::PeerDead { peer }) => Err(NetError::PeerDead { peer }),
            Err(TryRecvError::Empty) => Err(NetError::Empty),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

/// Factory for fully connected simulated networks.
pub struct Network;

impl Network {
    /// Creates `n` endpoints with reliable ordered all-to-all links and a
    /// shared statistics block.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize, config: NetConfig) -> (Vec<Endpoint>, Arc<NetStats>) {
        let stats = NetStats::new();
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            // Metered: the shared gauge makes even the "reliable" direct
            // links' deepest queue observable in the resource report.
            let (tx, rx) = metered_link(stats.link_gauge());
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let id = ProcId::from_index(i);
                Endpoint {
                    id,
                    sender: NetSender {
                        src: id,
                        transport: Transport::Direct(Arc::clone(&txs)),
                        fanout: n,
                        stats: Arc::clone(&stats),
                        config,
                    },
                    rx,
                }
            })
            .collect();
        (endpoints, stats)
    }

    /// Creates `n` endpoints over a *faulty* wire with the reliability
    /// protocol layered on top (CVM's UDP deployment): same API, plus the
    /// reliability counters.  The [`FaultPlan`](crate::FaultPlan)
    /// selects everything from plain Bernoulli loss to scripted
    /// partitions and kills.
    pub fn with_loss(
        n: usize,
        config: NetConfig,
        loss: crate::FaultPlan,
    ) -> (
        Vec<Endpoint>,
        Arc<NetStats>,
        Arc<crate::reliable::ReliabilityStats>,
    ) {
        let stats = NetStats::new();
        let (outbound_txs, deliver_rxs, rstats) = crate::reliable::build_reliable_fabric(n, loss);
        let endpoints = outbound_txs
            .into_iter()
            .zip(deliver_rxs)
            .enumerate()
            .map(|(i, (outbound, rx))| {
                let id = ProcId::from_index(i);
                Endpoint {
                    id,
                    sender: NetSender {
                        src: id,
                        transport: Transport::Reliable(Arc::new(outbound)),
                        fanout: n,
                        stats: Arc::clone(&stats),
                        config,
                    },
                    rx,
                }
            })
            .collect();
        (endpoints, stats, rstats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> (Vec<Endpoint>, Arc<NetStats>) {
        Network::new(n, NetConfig::default())
    }

    #[test]
    fn point_to_point_delivery() {
        let (eps, _) = net(2);
        eps[0]
            .sender()
            .send(
                ProcId(1),
                0,
                ByteBreakdown::single(TrafficClass::Data, 3),
                vec![1, 2, 3],
            )
            .unwrap();
        let pkt = eps[1].recv().unwrap();
        assert_eq!(pkt.src, ProcId(0));
        assert_eq!(pkt.dst, ProcId(1));
        assert_eq!(pkt.payload, vec![1, 2, 3]);
    }

    #[test]
    fn links_are_ordered() {
        let (eps, _) = net(2);
        let tx = eps[0].sender();
        for i in 0u8..10 {
            tx.send(
                ProcId(1),
                0,
                ByteBreakdown::single(TrafficClass::Control, 1),
                vec![i],
            )
            .unwrap();
        }
        for i in 0u8..10 {
            assert_eq!(eps[1].recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn self_send_works() {
        let (eps, _) = net(1);
        eps[0]
            .sender()
            .send(ProcId(0), 7, ByteBreakdown::default(), vec![])
            .unwrap();
        let pkt = eps[0].recv().unwrap();
        assert_eq!(pkt.sent_at, 7);
    }

    #[test]
    fn oversized_message_rejected() {
        let (eps, stats) = Network::new(2, NetConfig { max_msg_bytes: 64 });
        let err = eps[0]
            .sender()
            .send(
                ProcId(1),
                0,
                ByteBreakdown::single(TrafficClass::Data, 100),
                vec![0; 100],
            )
            .unwrap_err();
        assert!(matches!(err, NetError::MsgTooLarge { size: 128, max: 64 }));
        // Rejected messages are not accounted.
        assert_eq!(stats.snapshot().msgs, 0);
    }

    #[test]
    fn stats_include_header_bytes() {
        let (eps, stats) = net(2);
        eps[0]
            .sender()
            .send(
                ProcId(1),
                0,
                ByteBreakdown::single(TrafficClass::Sync, 10),
                vec![0; 10],
            )
            .unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.msgs, 1);
        assert_eq!(snap.class_bytes(TrafficClass::Sync), 10);
        assert_eq!(snap.class_bytes(TrafficClass::Control), HEADER_BYTES);
    }

    #[test]
    #[should_panic(expected = "byte breakdown")]
    fn mismatched_breakdown_panics() {
        let (eps, _) = net(2);
        let _ = eps[0].sender().send(
            ProcId(1),
            0,
            ByteBreakdown::single(TrafficClass::Data, 5),
            vec![1, 2],
        );
    }

    #[test]
    fn try_recv_empty_then_ready() {
        let (eps, _) = net(2);
        assert_eq!(eps[1].try_recv().unwrap_err(), NetError::Empty);
        eps[0]
            .sender()
            .send(ProcId(1), 0, ByteBreakdown::default(), vec![])
            .unwrap();
        assert!(eps[1].try_recv().is_ok());
    }

    #[test]
    fn with_src_rebinds() {
        let (eps, _) = net(3);
        let tx = eps[0].sender().with_src(ProcId(2));
        tx.send(ProcId(1), 0, ByteBreakdown::default(), vec![])
            .unwrap();
        assert_eq!(eps[1].recv().unwrap().src, ProcId(2));
        assert_eq!(tx.fanout(), 3);
    }
}
