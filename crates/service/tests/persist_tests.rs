//! Durability integration tests: journal integrity under fuzzed
//! corruption, byte-identical recovery after clean restarts, and the
//! full crash-point × fsync-policy matrix in wedge mode (the process
//! survives, so one test can crash, reopen, and compare).
//!
//! The property every test asserts, one way or another: whatever the
//! journal tail looks like, `Persist::open` lands on the longest valid
//! prefix without panicking, and a reopened daemon converges to the
//! same terminal statuses and race fingerprints as an uninterrupted
//! run.  `CVM_SEED` shifts the seeds and the scripted crash offsets.

use std::time::{Duration, Instant};

use cvm_net::wire::{decode_frame, encode_frame, Wire, FRAME_HEADER_BYTES};
use cvm_service::persist::JOURNAL_FILE;
use cvm_service::{
    CrashMode, CrashPoint, CrashSpec, Daemon, DaemonConfig, FsyncPolicy, JobId, JobPhase,
    JobSnapshot, JobSpec, JournalRecord, OutcomeImage, Persist, PersistConfig, ShadowState,
    Workload,
};
use cvm_testkit::{scratch_dir, seed};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn wait_all_terminal(daemon: &Daemon, budget: Duration) {
    let start = Instant::now();
    loop {
        if daemon.jobs().iter().all(|j| j.phase.is_terminal()) {
            return;
        }
        assert!(
            start.elapsed() < budget,
            "jobs never went terminal: {:?}",
            daemon.jobs()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Order-insensitive result image of one job: phase plus the store's
/// deduplicated `(fingerprint, hits)` pairs and pre-dedup merge count.
/// (`first_seed` is excluded: concurrent seeds merge in nondeterministic
/// order even without a crash.)
#[derive(Debug, PartialEq, Eq)]
struct JobImage {
    phase: JobPhase,
    seeds_done: u32,
    races: Vec<(u64, u64)>,
    reports_merged: u64,
}

fn job_image(daemon: &Daemon, id: JobId) -> JobImage {
    let snap = daemon.status(id).expect("job known");
    let races = daemon.races(id).unwrap_or_default();
    JobImage {
        phase: snap.phase,
        seeds_done: snap.seeds_done,
        races: races
            .races
            .iter()
            .map(|r| (r.fingerprint, r.hits))
            .collect(),
        reports_merged: races.reports_merged,
    }
}

fn racy_spec(seed_base: u64, seed_count: u32) -> JobSpec {
    JobSpec::new(
        Workload::RacyCounter { epochs: 2 },
        2,
        seed_base,
        seed_count,
    )
}

// ---------------------------------------------------------------------------
// Proptests: record sequences round-trip through a real journal file
// ---------------------------------------------------------------------------

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (1u64..4, 0u64..1000, 1u32..4).prop_map(|(epochs, base, count)| {
        JobSpec::new(Workload::MixedStripes { epochs }, 2, base, count)
    })
}

fn arb_outcome() -> impl Strategy<Value = OutcomeImage> {
    prop_oneof![
        (0u32..3, proptest::collection::vec(any::<u64>(), 0..5)).prop_map(|(retries, prints)| {
            let rendered = prints
                .iter()
                .map(|p| (*p, format!("race {p:#018x}")))
                .collect();
            OutcomeImage::Done {
                retries,
                occurrences: prints,
                rendered,
                recovery: [0, 1, 2, 3],
            }
        }),
        (any::<bool>(), 0u32..3).prop_map(|(transient, retries)| OutcomeImage::Failed {
            error: "injected failure".into(),
            transient,
            retries,
        }),
        Just(OutcomeImage::Cancelled),
    ]
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (1u64..6, arb_spec()).prop_map(|(j, spec)| JournalRecord::Submitted {
            job: JobId(j),
            spec
        }),
        (1u64..6, 0u64..10, arb_outcome()).prop_map(|(j, seed, outcome)| {
            JournalRecord::SeedDone {
                job: JobId(j),
                seed,
                outcome,
            }
        }),
        (1u64..6, 0u8..1).prop_map(|(j, _)| JournalRecord::Sealed { job: JobId(j) }),
        (1u64..6, 0u8..1).prop_map(|(j, _)| JournalRecord::Cancelled { job: JobId(j) }),
        (1u64..6, 0u8..1).prop_map(|(j, _)| JournalRecord::Evicted { job: JobId(j) }),
    ]
}

fn arb_records() -> impl Strategy<Value = Vec<JournalRecord>> {
    proptest::collection::vec(arb_record(), 0..12)
}

/// Applies `recs` directly, bypassing any file.
fn direct_apply(recs: &[JournalRecord]) -> ShadowState {
    let mut shadow = ShadowState::default();
    for rec in recs {
        shadow.apply(rec);
    }
    shadow
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn journal_replay_matches_direct_apply(recs in arb_records()) {
        let dir = scratch_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        for rec in &recs {
            bytes.extend_from_slice(&encode_frame(&rec.to_bytes()));
        }
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

        let (persist, shadow) = Persist::open(&PersistConfig::at(&dir)).unwrap();
        prop_assert_eq!(&shadow, &direct_apply(&recs));
        let stats = persist.stats();
        prop_assert_eq!(stats.torn_tail_truncations, 0);
        prop_assert_eq!(stats.journal_records, recs.len() as u64);
        drop(persist);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Damage the journal tail three ways — truncate anywhere, flip one
    /// bit anywhere, append garbage — and recovery must land on the
    /// longest valid frame prefix, count exactly one truncation, and
    /// leave the file clean for the *next* open.  Never a panic.
    #[test]
    fn corrupt_tails_recover_to_the_last_valid_prefix(
        recs in arb_records(),
        damage_mode in 0u8..3,
        offset_pick in any::<u64>(),
        bit_pick in 0u8..8,
        garbage in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let frames: Vec<Vec<u8>> = recs
            .iter()
            .map(|rec| encode_frame(&rec.to_bytes()))
            .collect();
        let clean: Vec<u8> = frames.concat();

        // Damage the byte stream and compute how many whole records the
        // valid prefix still holds.
        let mut bytes = clean.clone();
        let expect_records;
        let expect_torn;
        match damage_mode {
            0 => {
                // Truncate at an arbitrary offset.
                let cut = (offset_pick % (clean.len() as u64 + 1)) as usize;
                bytes.truncate(cut);
                let mut len = 0usize;
                let mut whole = 0u64;
                for f in &frames {
                    if len + f.len() <= cut {
                        len += f.len();
                        whole += 1;
                    } else {
                        break;
                    }
                }
                expect_records = whole;
                expect_torn = cut > len; // a partial frame remains
            }
            1 => {
                // Flip one bit; CRC (or the magic/length checks) must
                // stop replay at the frame containing it.
                prop_assume!(!clean.is_empty());
                let pos = (offset_pick % clean.len() as u64) as usize;
                bytes[pos] ^= 1 << bit_pick;
                let mut len = 0usize;
                let mut whole = 0u64;
                for f in &frames {
                    if len + f.len() <= pos {
                        len += f.len();
                        whole += 1;
                    } else {
                        break;
                    }
                }
                expect_records = whole;
                expect_torn = true;
            }
            _ => {
                // Garbage appended after the last valid frame.
                bytes.extend_from_slice(&garbage);
                expect_records = frames.len() as u64;
                expect_torn = true;
            }
        }

        let dir = scratch_dir("fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();

        let (persist, shadow) = Persist::open(&PersistConfig::at(&dir)).unwrap();
        let stats = persist.stats();
        prop_assert_eq!(stats.journal_records, expect_records);
        prop_assert_eq!(stats.torn_tail_truncations, u64::from(expect_torn));
        prop_assert_eq!(&shadow, &direct_apply(&recs[..expect_records as usize]));
        drop(persist);

        // The torn tail was truncated on disk: a second open replays the
        // same prefix with nothing left to truncate.
        let (persist, reshadow) = Persist::open(&PersistConfig::at(&dir)).unwrap();
        prop_assert_eq!(persist.stats().torn_tail_truncations, 0);
        prop_assert_eq!(persist.stats().journal_records, expect_records);
        prop_assert_eq!(&reshadow, &shadow);
        drop(persist);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Clean restart: byte-identical results, zero recomputation
// ---------------------------------------------------------------------------

#[test]
fn clean_restart_restores_results_without_recomputing() {
    let dir = scratch_dir("clean-restart");
    let seed = seed().max(1);
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };

    let daemon = Daemon::start(cfg.clone());
    let a = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    let b = daemon.submit(racy_spec(seed + 100, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let before: Vec<_> = [a, b]
        .iter()
        .map(|&id| (job_image(&daemon, id), daemon.races(id).unwrap()))
        .collect();
    assert!(before[0].0.races.iter().any(|(_, hits)| *hits > 0));
    let store_before = daemon.stats().store;
    let report = daemon.drain(Duration::from_secs(30));
    assert!(report.clean);
    assert!(report.persist.snapshots_written >= 1, "drain compacts");
    drop(daemon);

    let daemon = Daemon::start(cfg);
    // Restored, not recomputed: no pool attempt ran.
    let stats = daemon.stats();
    assert_eq!(stats.pool.attempts, 0, "sealed results must not re-run");
    assert_eq!(stats.persist.journal_records, 0, "snapshot covers it all");
    assert_eq!(stats.persist.recovered_jobs, 0, "nothing was in flight");
    assert_eq!(stats.jobs_submitted, 2);
    assert_eq!(
        stats.store, store_before,
        "the store's counters are restored"
    );
    for (i, &id) in [a, b].iter().enumerate() {
        assert_eq!(job_image(&daemon, id), before[i].0);
        // Byte-identical: the rendered race text survives too.
        let races = daemon.races(id).expect("results retained");
        let rendered: Vec<_> = races.races.iter().map(|r| &r.rendered).collect();
        let expect: Vec<_> = before[i].1.races.iter().map(|r| &r.rendered).collect();
        assert_eq!(rendered, expect);
        assert!(daemon.status(id).unwrap().recovered, "marked as restored");
    }
    // The restored daemon is alive: new submissions get fresh ids.
    let c = daemon.submit(racy_spec(seed, 1)).expect("admitted");
    assert!(c.0 > b.0, "id allocation resumes past recovered jobs");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    assert_eq!(daemon.status(c).unwrap().phase, JobPhase::Done);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evictions_survive_restart() {
    let dir = scratch_dir("evict");
    let seed = seed().max(1);
    // Probe how many bytes each job's results cost, on an in-memory
    // daemon with an unbounded budget.
    let (bytes_a, bytes_both) = {
        let probe = Daemon::start(DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        });
        probe.submit(racy_spec(seed, 2)).expect("admitted");
        wait_all_terminal(&probe, Duration::from_secs(60));
        let bytes_a = probe.stats().store.bytes_live;
        probe.submit(racy_spec(seed + 7, 2)).expect("admitted");
        wait_all_terminal(&probe, Duration::from_secs(60));
        (bytes_a, probe.stats().store.bytes_live)
    };
    assert!(
        bytes_a > 0 && bytes_both > bytes_a,
        "racy jobs retain bytes"
    );

    // A budget fitting either job alone but not both: sealing the second
    // must evict the first (oldest sealed), and only the first.
    let cfg = DaemonConfig {
        workers: 2,
        store_budget_bytes: bytes_both - 1,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg.clone());
    let a = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let b = daemon.submit(racy_spec(seed + 7, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let evicted_live = daemon.stats().store.jobs_evicted;
    assert!(evicted_live >= 1, "sealing the second job must evict {a}");
    assert!(daemon.races(b).is_some(), "newest sealed job is retained");
    daemon.drain(Duration::from_secs(30));
    drop(daemon);

    let daemon = Daemon::start(cfg);
    assert!(daemon.races(a).is_none(), "evicted results stay evicted");
    assert!(daemon.races(b).is_some());
    assert_eq!(daemon.stats().store.jobs_evicted, evicted_live);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_over_budget_store_evicts_at_open() {
    let dir = scratch_dir("evict-at-open");
    let seed = seed().max(1);
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg.clone());
    let a = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let b = daemon.submit(racy_spec(seed + 7, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let bytes_both = daemon.stats().store.bytes_live;
    assert!(daemon.races(a).is_some() && daemon.races(b).is_some());
    daemon.drain(Duration::from_secs(30));
    drop(daemon);

    // Reopen under a budget fitting either job alone but not both: the
    // store is over budget at open, and evicts the oldest sealed job there,
    // as a live seal would.
    let budget = bytes_both - 1;
    let cfg = DaemonConfig {
        store_budget_bytes: budget,
        ..cfg
    };
    let daemon = Daemon::start(cfg.clone());
    let store = daemon.stats().store;
    assert!(
        store.bytes_live <= budget,
        "over budget after open: {store:?}"
    );
    assert_eq!(store.jobs_evicted, 1);
    assert!(daemon.races(a).is_none(), "oldest sealed job evicted");
    assert!(daemon.races(b).is_some(), "newest sealed job retained");
    drop(daemon);

    // The eviction was journaled: a second reopen agrees.
    let daemon = Daemon::start(cfg);
    assert_eq!(daemon.stats().store, store);
    assert!(daemon.races(a).is_none());
    assert!(daemon.races(b).is_some());
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eviction_queue_survives_restart_in_journal_order() {
    let dir = scratch_dir("seal-order");
    let seed = seed().max(1);
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg.clone());
    // A lower-id job that cannot finish until it is cancelled (every
    // attempt is an injected transient fault, retried without end): it
    // seals after the higher-id racy job, so the journal's seal order is
    // not job-id order.
    let mut endless = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, seed, 1);
    endless.flaky_first = u32::MAX;
    endless.retry_budget = u32::MAX;
    let low = daemon.submit(endless).expect("admitted");
    let high = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    let start = Instant::now();
    while !daemon.status(high).unwrap().phase.is_terminal() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{high} never sealed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!daemon.status(low).unwrap().phase.is_terminal());
    assert!(daemon.cancel(low));
    wait_all_terminal(&daemon, Duration::from_secs(60));
    // The cancelled job retains an empty entry: the bytes are the racy job's.
    let one_job = daemon.stats().store.bytes_live;
    assert!(one_job > 0);
    daemon.drain(Duration::from_secs(30));
    drop(daemon);

    // Reopen under a budget fitting one racy job, then seal another: the
    // oldest sealed job, the higher-id one, is evicted, and nothing else.
    let daemon = Daemon::start(DaemonConfig {
        store_budget_bytes: one_job,
        ..cfg
    });
    assert_eq!(daemon.stats().store.jobs_evicted, 0);
    let newest = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    assert!(daemon.races(high).is_none(), "first sealed, first evicted");
    assert!(daemon.races(low).is_some(), "sealed second, still retained");
    assert!(daemon.races(newest).is_some());
    assert_eq!(daemon.stats().store.jobs_evicted, 1);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopened_daemon_answers_every_retained_status_as_before() {
    let dir = scratch_dir("statuses");
    let seed = seed().max(1);
    // One worker seals in submission order; the budget keeps the last two
    // jobs' records but not the racy job's results as well.
    let cfg = DaemonConfig {
        workers: 1,
        store_budget_bytes: 400,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg.clone());
    let mut failing = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, seed, 1);
    failing.flaky_first = 2;
    failing.retry_budget = 1;
    let quiet = JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, seed, 2);
    let ids: Vec<JobId> = [racy_spec(seed, 2), failing, quiet]
        .into_iter()
        .map(|spec| daemon.submit(spec).expect("admitted"))
        .collect();
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let before: Vec<_> = ids.iter().map(|&id| daemon.status(id)).collect();
    assert!(before[0].is_none(), "the racy job's results were evicted");
    assert!(before[1..].iter().all(Option::is_some));
    assert_eq!(before[1].as_ref().unwrap().phase, JobPhase::Failed);
    let listed = daemon.jobs();
    assert!(daemon.drain(Duration::from_secs(30)).clean);
    drop(daemon);

    let daemon = Daemon::start(cfg);
    let recovered = |snap: Option<JobSnapshot>| {
        snap.map(|snap| JobSnapshot {
            recovered: true,
            ..snap
        })
    };
    for (&id, before) in ids.iter().zip(before) {
        assert_eq!(daemon.status(id), recovered(before), "{id}");
    }
    let relisted: Vec<_> = listed.into_iter().map(|s| recovered(Some(s))).collect();
    assert_eq!(
        daemon.jobs().into_iter().map(Some).collect::<Vec<_>>(),
        relisted
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Evicted jobs leave the shadow
// ---------------------------------------------------------------------------

/// The shadow and its snapshot hold the retained jobs, not every job
/// served: a few hundred jobs under a budget that keeps a handful leave
/// exactly the handful's bytes behind, and a reopen counts every job once.
#[test]
fn shadow_and_snapshot_grow_with_retained_jobs_not_jobs_served() {
    let dir = scratch_dir("bounded");
    let seed = seed().max(1);
    let cfg = DaemonConfig {
        workers: 2,
        store_budget_bytes: 2048,
        persist: PersistConfig {
            fsync: FsyncPolicy::Never,
            compact_every: 16,
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg.clone());
    // Race-free one-seed jobs of one shape: each encodes to the same size.
    let spec = |i: u64| JobSpec::new(Workload::DisjointGrid { epochs: 1 }, 2, seed + i, 1);
    daemon.submit(spec(0)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let per_job = daemon.stats().persist.shadow_bytes;
    assert!(per_job > 0);

    const SERVED: u64 = 301;
    for batch in 0..(SERVED - 1) / 50 {
        for i in 0..50 {
            daemon.submit(spec(1 + batch * 50 + i)).expect("admitted");
        }
        wait_all_terminal(&daemon, Duration::from_secs(120));
    }
    let report = daemon.drain(Duration::from_secs(30));
    assert!(report.clean);
    let stats = daemon.stats();
    let retained = daemon.jobs();
    let kept = retained.len() as u64;
    assert_eq!(stats.jobs_submitted, SERVED);
    assert_eq!(kept + stats.store.jobs_evicted, SERVED);
    assert!((1..SERVED / 10).contains(&kept), "{kept} jobs retained");
    assert!(retained.iter().all(|j| j.phase == JobPhase::Done));
    let p = report.persist;
    assert_eq!(p.shadow_bytes, kept * per_job, "{kept} jobs retained");
    // Magic, version and frame header; `next_job` and the job count; per
    // job its id, bytes and three flags; the eviction queue; the count.
    assert_eq!(
        p.snapshot_bytes,
        (8 + FRAME_HEADER_BYTES as u64) + 12 + kept * (8 + per_job + 3) + (4 + 8 * kept) + 8,
        "{kept} jobs retained"
    );
    let before: Vec<_> = (1..=SERVED).map(|id| daemon.status(JobId(id))).collect();
    drop(daemon);

    let daemon = Daemon::start(cfg);
    let again = daemon.stats();
    assert_eq!(again.jobs_submitted, SERVED, "each job counted once");
    assert_eq!(again.store, stats.store);
    assert_eq!(again.persist.shadow_bytes, p.shadow_bytes);
    assert_eq!(again.persist.snapshot_bytes, p.snapshot_bytes);
    for (id, before) in (1..=SERVED).zip(before) {
        let before = before.map(|snap| JobSnapshot {
            recovered: true,
            ..snap
        });
        assert_eq!(daemon.status(JobId(id)), before, "job {id}");
    }
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal's records, decoded.
fn journal_records(dir: &std::path::Path) -> Vec<JournalRecord> {
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let mut records = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
        let end = off + FRAME_HEADER_BYTES + len;
        let body = decode_frame(&bytes[off..end]).expect("a whole frame");
        records.push(JournalRecord::from_bytes(body).expect("a record"));
        off = end;
    }
    records
}

/// A crash between writing a snapshot and trimming the journal leaves the
/// journal holding the `Submitted` and `Evicted` records of jobs the
/// snapshot no longer has.  Replaying them resurrects none, counts each
/// eviction once, and the reopened daemon answers as one that never
/// crashed.
#[test]
fn replayed_evictions_after_a_snapshot_resurrect_nothing() {
    let seed = seed().max(1);
    // What one racy job's results cost the store.
    let job_bytes = {
        let probe = Daemon::start(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        });
        probe.submit(racy_spec(seed, 1)).expect("admitted");
        wait_all_terminal(&probe, Duration::from_secs(60));
        probe.stats().store.bytes_live
    };
    // One worker and one job at a time: the same seal and eviction order
    // on every daemon.  The budget keeps one job: the next one's results
    // evict it, within the records between two compactions.
    let daemon_at = |dir: &std::path::Path, crash: Option<CrashSpec>| {
        Daemon::start(DaemonConfig {
            workers: 1,
            store_budget_bytes: job_bytes * 3 / 2,
            persist: PersistConfig {
                fsync: FsyncPolicy::Never,
                compact_every: 16,
                crash,
                ..PersistConfig::at(dir)
            },
            ..DaemonConfig::default()
        })
    };
    let serve = |daemon: &Daemon, i: u64| {
        daemon.submit(racy_spec(seed + i, 1)).expect("admitted");
        wait_all_terminal(daemon, Duration::from_secs(60));
    };

    // Serve until the second compaction wedges the persister past its
    // rename: the journal was not trimmed, and nothing after it is kept.
    let dir = scratch_dir("evict-window");
    let crashed = daemon_at(
        &dir,
        Some(CrashSpec {
            point: CrashPoint::PostSnapshotPreTrim,
            at: 2,
            mode: CrashMode::Wedge,
        }),
    );
    let mut served = 0;
    while crashed.stats().persist.snapshots_written < 2 {
        assert!(served < 40, "the second compaction never came");
        serve(&crashed, served);
        served += 1;
    }
    drop(crashed);
    let replayed = journal_records(&dir);
    let evicted: Vec<JobId> = replayed
        .iter()
        .filter_map(|rec| match rec {
            JournalRecord::Evicted { job } => Some(*job),
            _ => None,
        })
        .filter(|job| {
            replayed
                .iter()
                .any(|rec| matches!(rec, JournalRecord::Submitted { job: j, .. } if j == job))
        })
        .collect();
    assert!(
        !evicted.is_empty(),
        "the untrimmed journal submits and evicts no job: {replayed:?}"
    );

    // The uncrashed reference serves the same jobs.
    let reference_dir = scratch_dir("evict-window-ref");
    let reference = daemon_at(&reference_dir, None);
    for i in 0..served {
        serve(&reference, i);
    }

    let reopened = daemon_at(&dir, None);
    wait_all_terminal(&reopened, Duration::from_secs(60));
    for job in &evicted {
        assert_eq!(reopened.status(*job), None, "{job} came back");
    }
    let (want, got) = (reference.stats(), reopened.stats());
    assert_eq!(got.store, want.store, "evictions counted once");
    assert_eq!(got.jobs_submitted, want.jobs_submitted);
    for id in (1..=served).map(JobId) {
        let want = reference.status(id).map(|snap| JobSnapshot {
            recovered: true,
            ..snap
        });
        assert_eq!(reopened.status(id), want, "{id}");
        let races = |daemon: &Daemon| {
            daemon.races(id).map(|races| {
                let found: Vec<_> = races
                    .races
                    .into_iter()
                    .map(|r| (r.fingerprint, r.hits, r.rendered))
                    .collect();
                (found, races.reports_merged)
            })
        };
        assert_eq!(races(&reopened), races(&reference), "{id}");
    }
    drop((reference, reopened));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference_dir).ok();
}

// ---------------------------------------------------------------------------
// The crash matrix, in-process (wedge mode)
// ---------------------------------------------------------------------------

/// Runs one job to terminal on a daemon whose persister wedges (goes
/// inert, as a crash would) at `point`, then reopens the directory and
/// checks the recovered daemon converges to `reference`.
fn crash_and_recover(point: CrashPoint, fsync: FsyncPolicy, reference: &JobImage) {
    let seed = seed().max(1);
    let dir = scratch_dir(&format!("wedge-{}", point.name()));
    // Record stream for one 3-seed job: Submitted, SeedDone x3, Sealed.
    // Record-level points target records 2..=5 (never the Submitted —
    // in wedge mode the daemon acks a submission the journal missed, a
    // window only the abort-mode bin test can close).  Compaction fires
    // after record 3, so compaction-level points use the first hit.
    let at = match point {
        CrashPoint::MidRecord | CrashPoint::PostRecordPreFsync => 2 + (seed % 4),
        CrashPoint::MidCompaction | CrashPoint::PostSnapshotPreTrim => 1,
    };
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig {
            fsync,
            compact_every: 3,
            crash: Some(CrashSpec {
                point,
                at,
                mode: CrashMode::Wedge,
            }),
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let id = daemon.submit(racy_spec(seed, 3)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    daemon.drain(Duration::from_secs(30));
    drop(daemon);

    // Reopen clean from whatever the wedged persister left behind.
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig {
            fsync,
            compact_every: 3,
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::open(cfg)
        .unwrap_or_else(|e| panic!("reopen after {}@{at} ({}): {e}", point.name(), fsync.name()));
    wait_all_terminal(&daemon, Duration::from_secs(60));
    let image = job_image(&daemon, id);
    assert_eq!(
        &image,
        reference,
        "divergence after {}@{at} under fsync={}",
        point.name(),
        fsync.name()
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_matrix_recovers_identical_results() {
    let seed = seed().max(1);
    // Uninterrupted reference: same spec, no persistence, no crash.
    let reference = {
        let daemon = Daemon::start(DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        });
        let id = daemon.submit(racy_spec(seed, 3)).expect("admitted");
        wait_all_terminal(&daemon, Duration::from_secs(60));
        job_image(&daemon, id)
    };
    assert_eq!(reference.phase, JobPhase::Done);
    assert!(!reference.races.is_empty(), "racy workload must race");

    for point in CrashPoint::ALL {
        for fsync in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(2),
            FsyncPolicy::Never,
        ] {
            crash_and_recover(point, fsync, &reference);
        }
    }
}

/// A crash mid-run must never lose an *acknowledged* job: whatever the
/// journal caught, the job id is present and terminal after recovery.
#[test]
fn no_acknowledged_job_is_silently_lost() {
    let seed = seed().max(1);
    let dir = scratch_dir("no-loss");
    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig {
            // Wedge during the very first SeedDone: the outcome is lost
            // but the Submitted record is already durable.
            crash: Some(CrashSpec {
                point: CrashPoint::MidRecord,
                at: 2,
                mode: CrashMode::Wedge,
            }),
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let id = daemon.submit(racy_spec(seed, 2)).expect("admitted");
    wait_all_terminal(&daemon, Duration::from_secs(60));
    drop(daemon);

    let cfg = DaemonConfig {
        workers: 2,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::open(cfg).expect("reopen");
    let snap = daemon.status(id).expect("admitted job survives the crash");
    assert!(snap.recovered);
    assert_eq!(daemon.stats().persist.recovered_jobs, 1);
    wait_all_terminal(&daemon, Duration::from_secs(60));
    assert_eq!(daemon.status(id).unwrap().phase, JobPhase::Done);
    assert!(!daemon.races(id).unwrap().races.is_empty());
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Cancellation survives restart
// ---------------------------------------------------------------------------

#[test]
fn cancellation_is_durable() {
    let dir = scratch_dir("cancel");
    let cfg = DaemonConfig {
        workers: 1,
        persist: PersistConfig {
            // Wedge immediately after the Cancelled record lands.
            crash: Some(CrashSpec {
                point: CrashPoint::PostRecordPreFsync,
                at: 2,
                mode: CrashMode::Wedge,
            }),
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let slow = JobSpec::new(
        Workload::SleepyGrid {
            epochs: 200,
            dwell_ms: 50,
        },
        2,
        seed().max(1),
        1,
    );
    let id = daemon.submit(slow).expect("admitted");
    assert!(daemon.cancel(id));
    wait_all_terminal(&daemon, Duration::from_secs(60));
    drop(daemon);

    let cfg = DaemonConfig {
        workers: 1,
        persist: PersistConfig::at(&dir),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::open(cfg).expect("reopen");
    // The journaled cancellation re-applies: the job drives to a
    // terminal Cancelled phase instead of re-running 10 seconds of grid.
    wait_all_terminal(&daemon, Duration::from_secs(60));
    assert_eq!(daemon.status(id).unwrap().phase, JobPhase::Cancelled);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}
