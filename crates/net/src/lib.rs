//! Simulated cluster interconnect.
//!
//! The paper's testbed connected DEC workstations with a 155 Mbit ATM
//! network and ran CVM's reliable end-to-end protocols over UDP.  The
//! detection algorithm never looks at packets — it consumes protocol
//! events — so this crate substitutes in-process links:
//!
//! * [`Network`] wires up `n` endpoints with reliable, ordered,
//!   all-to-all links (crossbeam channels underneath);
//! * [`wire`] is a small explicit codec; every message is really encoded
//!   to bytes so that message sizes are *exact*, not estimated — the
//!   paper's Table 3 "Msg Ohead" column (bandwidth added by read notices)
//!   is computed from these sizes;
//! * [`NetStats`] accounts bytes and message counts per [`TrafficClass`],
//!   letting the harness separate read-notice and bitmap bytes from base
//!   protocol traffic;
//! * a configurable maximum message size models the system limit that
//!   capped the paper's input sizes (§5.3).
//!
//! # Examples
//!
//! ```
//! use cvm_net::wire::Wire;
//! use cvm_vclock::VClock;
//!
//! let vc = VClock::from(vec![3, 1, 4]);
//! let bytes = vc.to_bytes();
//! assert_eq!(bytes.len() as u64, vc.wire_size());   // Exact sizes.
//! assert_eq!(VClock::from_bytes(&bytes).unwrap(), vc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod network;
pub mod reliable;
mod stats;
pub mod telemetry;
pub mod wire;

pub use network::{
    Endpoint, NetConfig, NetError, NetEvent, NetSender, Network, Packet, HEADER_BYTES,
};
pub use reliable::{
    backoff_delay, splitmix64, CorruptKind, FaultEvent, FaultPlan, ProtocolPhase,
    ReliabilitySnapshot, ReliabilityStats,
};
pub use stats::{ByteBreakdown, NetStats, StatsSnapshot, TrafficClass};
