//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! is predicted to move.  `BENCHMARK.json` is generated from these
//! (`--benchmark-json`); a unit test in `report.rs` keeps the two in step.

/// One workload: a set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One sentence: why this workload is in the set.
    pub why: &'static str,
    /// What an op is and what its baseline is.
    pub params: &'static str,
    /// Percentile `op_tail_ms` reports: the highest the workload's sample
    /// count supports with ten samples beyond it and margin to spare.
    pub tail_percentile: f64,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "sor_paper",
        why: "15 M instrumented accesses and 10 MB of page traffic per run but an empty check list: the bypass workload for detector and lock optimisations",
        params: "op = sor::run(SorParams::paper()), 4 nodes, 8 KB pages, single-writer, DetectConfig::on(); baseline = the same with DetectConfig::off(); ops alternate",
        tail_percentile: 50.0,
    },
    WorkloadSpec {
        name: "water_paper",
        why: "the paper's real-bug app: thousands of small lock and barrier messages per run, so round trips and Cluster::run's fixed cost dominate while the detector compares real bitmaps",
        params: "op = water::run(WaterParams::paper() with the instance seed from --seed), 4 nodes, 8 KB pages, detection on; baseline = detection off; ops alternate",
        tail_percentile: 75.0,
    },
    WorkloadSpec {
        name: "lock_storm",
        why: "every interval is concurrent with every remote one, so the detector's plan/compare and the vclock/page kernels do most of the work",
        params: "op = ledger-owned program, 4 nodes x 48 epochs x 96 disjoint-lock intervals per process per epoch, one unsynchronised clash word per epoch, detection on; baseline = detection off; ops alternate",
        tail_percentile: 75.0,
    },
    WorkloadSpec {
        name: "reliable_recover",
        why: "the same DSM through the reliability engine, checkpoint commit and recovery: retransmit timers and wait floors dominate",
        params: "op = the lock_storm program at 12 epochs over FaultPlan::new(0.05, seed) + 5 % corruption, RTO 2/16 ms, 8 retransmits, Recover{3}, node 2 killed at its 5th barrier arrival; baseline = same program on the plain link; ops alternate",
        tail_percentile: 50.0,
    },
    WorkloadSpec {
        name: "service_inproc",
        why: "thousands of sub-10 ms jobs: admission, pool supervision, helper-thread churn and Cluster::run spawn/teardown dominate, detection is negligible",
        params: "op = one job (4 shapes rotating in seeded order, 4 epochs x 2 seeds) through a default in-memory Daemon; 2 closed-loop clients polling status every 200 us; baseline = the same jobs' seeds via run_direct, back to back",
        tail_percentile: 99.0,
    },
    WorkloadSpec {
        name: "service_tcp_durable",
        why: "the same service layer used differently - JSON parse/render, socket round trips, a journal fsync per record - so a gain for the in-process path that costs the wire/durable path shows",
        params: "op = the same job mix over 2 TcpFrontEnd connections on 127.0.0.1:0, journal on with FsyncPolicy::Always, status polled every 500 us; baseline = run_direct as above",
        tail_percentile: 99.0,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.  Every workload reports every
/// one; none is ever zero.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

// Bounds: on a quiet box ten runs of a workload spread by 1-3 % (IQR over
// median) on every timing, which would carry a 10 % bound.  But the box is
// a shared one: for minutes at a time whole runs read 15-20 % slower, wall
// and CPU alike, and a set of ten that catches such a stretch spreads by up
// to 16 % (22 % on the tail).  The bounds are sized for that set.  The
// ratio needs less: a slow stretch lands on op and baseline alike.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "op_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        what: "median wall of one op: a detection-on Cluster::run, or a job from submit to its client seeing it terminal (mean of the four job shapes' medians)",
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "op wall at the workload's tail percentile (the highest with ten samples beyond it)",
    },
    EndToEnd {
        name: "overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.15,
        what: "median op wall over median baseline wall: detection on/off (Table 1's slowdown in wall time), faulty wire over plain link, or job latency over its direct runs",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        what: "ops (and baselines, where they alternate) completed per measured second",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        what: "process CPU time (user + system) of the measured phase per completed op",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "resident-set high-water mark of the benchmark process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of repeated set-ups: input and reference build, daemon/TCP/journal start, warm-up ops",
    },
];

/// `(end-to-end metric, workload)` a layer metric should move.
pub type Moves = &'static [(&'static str, &'static str)];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate the row belongs to (`trace` for the tracer's own rows).
    pub layer: &'static str,
    pub moves: Moves,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: Moves,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const STORM_DETECT: Moves = &[("overhead_ratio", "lock_storm")];
const SOR_DETECT: Moves = &[("overhead_ratio", "sor_paper")];
const SOR_WALL: Moves = &[("op_wall_ms", "sor_paper")];
const SOR_BOTH: Moves = &[("op_wall_ms", "sor_paper"), ("overhead_ratio", "sor_paper")];
const STORM_BOTH: Moves = &[
    ("overhead_ratio", "lock_storm"),
    ("op_wall_ms", "lock_storm"),
];
const WATER_WALL: Moves = &[("op_wall_ms", "water_paper")];
const RECOVER_WALL: Moves = &[("op_wall_ms", "reliable_recover")];
const LOCK_WALL: Moves = &[("op_wall_ms", "lock_storm"), ("op_wall_ms", "water_paper")];
const RUN_FIXED: Moves = &[
    ("ops_per_s", "service_inproc"),
    ("op_wall_ms", "service_inproc"),
    ("ops_per_s", "service_tcp_durable"),
    ("op_wall_ms", "service_tcp_durable"),
    ("op_wall_ms", "water_paper"),
];
const INPROC: Moves = &[
    ("ops_per_s", "service_inproc"),
    ("op_wall_ms", "service_inproc"),
    ("op_tail_ms", "service_inproc"),
];
const DURABLE: Moves = &[
    ("ops_per_s", "service_tcp_durable"),
    ("op_wall_ms", "service_tcp_durable"),
    ("op_tail_ms", "service_tcp_durable"),
];
const NONE: Moves = &[];

pub const PER_LAYER: [PerLayer; 80] = [
    row(
        "vclock.concurrent_check_ns",
        "ns",
        Lower,
        "vclock",
        STORM_DETECT,
    ),
    row(
        "page.bitmap.overlap_1024_ns",
        "ns",
        Lower,
        "page",
        STORM_DETECT,
    ),
    row(
        "page.bitmap.overlap_words_1024_ns",
        "ns",
        Lower,
        "page",
        STORM_DETECT,
    ),
    row("page.bitmap.set_ns", "ns", Lower, "page", SOR_DETECT),
    // Multi-writer only: none of the six workloads; seen in dsm.page.*.mw.
    row("page.diff.make_1024_us", "us", Lower, "page", NONE),
    row("page.diff.apply_us", "us", Lower, "page", NONE),
    row(
        "instrument.check_shared_ns",
        "ns",
        Lower,
        "instrument",
        SOR_DETECT,
    ),
    row(
        "instrument.check_private_ns",
        "ns",
        Lower,
        "instrument",
        SOR_DETECT,
    ),
    row("core.plan_us", "us", Lower, "core", STORM_BOTH),
    row("core.compare_us", "us", Lower, "core", STORM_BOTH),
    row("core.epoch_us", "us", Lower, "core", STORM_BOTH),
    row("core.pair_comparisons", "count", Lower, "core", STORM_BOTH),
    row("core.pairs_overlapping", "count", Lower, "core", STORM_BOTH),
    row(
        "core.bitmap_comparisons",
        "count",
        Lower,
        "core",
        STORM_BOTH,
    ),
    row(
        "core.races_per_check_entry",
        "ratio",
        Higher,
        "core",
        STORM_BOTH,
    ),
    row("net.wire.page_encode_8k_ns", "ns", Lower, "net", SOR_WALL),
    row("net.wire.page_decode_8k_ns", "ns", Lower, "net", SOR_WALL),
    row(
        "net.wire.frame_encode_8k_ns",
        "ns",
        Lower,
        "net",
        RECOVER_WALL,
    ),
    row(
        "net.wire.frame_decode_8k_ns",
        "ns",
        Lower,
        "net",
        RECOVER_WALL,
    ),
    row("net.wire.grant_encode_ns", "ns", Lower, "net", LOCK_WALL),
    row("net.wire.grant_decode_ns", "ns", Lower, "net", LOCK_WALL),
    row("net.link.hop_us", "us", Lower, "net", WATER_WALL),
    row("net.reliable.hop_us", "us", Lower, "net", RECOVER_WALL),
    row(
        "net.reliable.retransmissions",
        "count",
        Lower,
        "net",
        RECOVER_WALL,
    ),
    row(
        "net.reliable.corrupt_dropped",
        "count",
        Lower,
        "net",
        RECOVER_WALL,
    ),
    row("net.msgs", "count", Lower, "net", NONE),
    row("net.bytes", "B", Lower, "net", NONE),
    row("dsm.run.fixed_us.n2", "us", Lower, "dsm", RUN_FIXED),
    row("dsm.run.fixed_us.n4", "us", Lower, "dsm", RUN_FIXED),
    row("dsm.run.fixed_us.n8", "us", Lower, "dsm", RUN_FIXED),
    row("dsm.lock.remote_acquire_us", "us", Lower, "dsm", LOCK_WALL),
    row("dsm.lock.local_acquire_ns", "ns", Lower, "dsm", LOCK_WALL),
    row("dsm.access.read_ns.on", "ns", Lower, "dsm", SOR_BOTH),
    row("dsm.access.read_ns.off", "ns", Lower, "dsm", SOR_BOTH),
    row("dsm.access.write_ns.on", "ns", Lower, "dsm", SOR_BOTH),
    row("dsm.access.write_ns.off", "ns", Lower, "dsm", SOR_BOTH),
    row("dsm.page.read_fault_us.sw", "us", Lower, "dsm", SOR_WALL),
    row("dsm.page.read_fault_us.mw", "us", Lower, "dsm", NONE),
    row("dsm.page.write_fault_us.sw", "us", Lower, "dsm", SOR_WALL),
    row("dsm.page.write_fault_us.mw", "us", Lower, "dsm", NONE),
    row("dsm.barrier.round_us.n2", "us", Lower, "dsm", WATER_WALL),
    row("dsm.barrier.round_us.n4", "us", Lower, "dsm", WATER_WALL),
    row("dsm.barrier.round_us.n8", "us", Lower, "dsm", WATER_WALL),
    row("dsm.barrier.wait_us.sync", "us", Lower, "dsm", STORM_DETECT),
    row(
        "dsm.barrier.wait_us.pipelined",
        "us",
        Lower,
        "dsm",
        STORM_DETECT,
    ),
    row("dsm.pipeline.stalls", "count", Lower, "dsm", STORM_DETECT),
    row("dsm.ckpt.commit_us", "us", Lower, "dsm", RECOVER_WALL),
    row("dsm.ckpt.bytes_per_epoch", "B", Lower, "dsm", RECOVER_WALL),
    row("dsm.recover.restart_ms", "ms", Lower, "dsm", RECOVER_WALL),
    row("dsm.locks_remote", "count", Lower, "dsm", NONE),
    row("dsm.faults", "count", Lower, "dsm", NONE),
    row("dsm.intervals", "count", Lower, "dsm", NONE),
    row("dsm.retained_bytes_high_water", "B", Lower, "dsm", NONE),
    // Virtual on/off: reported, never gated (it is schedule-dependent).
    row("dsm.simtime.slowdown", "ratio", Lower, "dsm", NONE),
    // Computed: what outside timing cannot see.
    row("apps.unattributed_share", "ratio", Lower, "apps", NONE),
    row("service.submit_us", "us", Lower, "service", INPROC),
    row("service.status_us", "us", Lower, "service", INPROC),
    row("service.queue_wait_ms", "ms", Lower, "service", INPROC),
    row("service.run_ms", "ms", Lower, "service", INPROC),
    row("service.direct_run_ms", "ms", Lower, "service", INPROC),
    row("service.overhead_ratio", "ratio", Lower, "service", INPROC),
    row("service.pool.attempts", "count", Lower, "service", INPROC),
    row("service.pool.retries", "count", Lower, "service", INPROC),
    row("service.queue_full", "count", Lower, "service", INPROC),
    row("service.json.parse_us", "us", Lower, "service", DURABLE),
    row(
        "service.tcp.handle_line_us",
        "us",
        Lower,
        "service",
        DURABLE,
    ),
    row("service.tcp.ping_rtt_us", "us", Lower, "service", DURABLE),
    row(
        "service.persist.record_us.always",
        "us",
        Lower,
        "service",
        DURABLE,
    ),
    row(
        "service.persist.record_us.never",
        "us",
        Lower,
        "service",
        DURABLE,
    ),
    row(
        "service.persist.fsyncs_per_job",
        "count",
        Lower,
        "service",
        DURABLE,
    ),
    row("trace.overhead_ratio", "ratio", Lower, "trace", NONE),
    row("trace.coverage_share", "ratio", Higher, "trace", NONE),
    row("trace.self_ms.run", "ms", Lower, "trace", NONE),
    row("trace.self_ms.lock", "ms", Lower, "trace", NONE),
    row("trace.self_ms.access", "ms", Lower, "trace", NONE),
    row("trace.self_ms.unlock", "ms", Lower, "trace", NONE),
    row("trace.self_ms.barrier", "ms", Lower, "trace", NONE),
    row("trace.self_ms.job", "ms", Lower, "trace", NONE),
    row("trace.self_ms.submit", "ms", Lower, "trace", NONE),
    row("trace.self_ms.queue_wait", "ms", Lower, "trace", NONE),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn names_ok(names: impl Iterator<Item = &'static str>) {
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(n), "{n} is used twice");
        }
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        names_ok(
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .chain(END_TO_END.iter().map(|m| m.name))
                .chain(PER_LAYER.iter().map(|m| m.name)),
        );
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        for m in &PER_LAYER {
            for (metric, on) in m.moves {
                assert!(END_TO_END.iter().any(|e| e.name == *metric), "{metric}");
                assert!(workload(on).is_some(), "{on}");
            }
        }
    }
}
