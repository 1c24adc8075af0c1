//! Holds the shipped SOR and FFT, which move rows as runs, to test-only
//! reference programs that make the same accesses one word at a time: a run
//! is the per-access routine executed once per word, so everything a run
//! report carries must come out the same.

use cvm_dsm::{DetectConfig, DsmConfig, Protocol, RecoveryPolicy, RunReport, WriteDetection};
use cvm_page::Geometry;

/// Both protocols × {on, off, instrumentation-only, diff-derived writes
/// (multi-writer only), on + trace, trace only, on + checkpoints}, on pages
/// of `page_bytes`.
pub(crate) fn configs(nprocs: usize, page_bytes: usize) -> Vec<(String, DsmConfig)> {
    type Edit = fn(&mut DsmConfig);
    const EDITS: [(&str, Edit); 7] = [
        ("on", |_| {}),
        ("off", |c| c.detect = DetectConfig::off()),
        ("instrumentation-only", |c| {
            c.detect = DetectConfig::instrumentation_only();
        }),
        ("diffs", |c| {
            c.detect.write_detection = WriteDetection::Diffs;
        }),
        ("on+trace", |c| c.trace = true),
        ("trace-only", |c| {
            c.detect = DetectConfig::off();
            c.trace = true;
        }),
        ("on+checkpoints", |c| {
            c.recovery = RecoveryPolicy::Recover { max_attempts: 1 };
        }),
    ];
    let mut out = Vec::new();
    for protocol in [Protocol::SingleWriter, Protocol::MultiWriter] {
        for (name, edit) in EDITS {
            if name == "diffs" && protocol == Protocol::SingleWriter {
                continue; // No diffs to derive write bits from.
            }
            let mut cfg = DsmConfig::new(nprocs);
            cfg.protocol = protocol;
            cfg.geometry = Geometry::with_page_bytes(page_bytes);
            edit(&mut cfg);
            out.push((format!("{protocol:?}/{name}"), cfg));
        }
    }
    out
}

/// Asserts that two runs of one program left the same report.  The final
/// clock values are never compared: they depend on when the service thread
/// got the lock.  `page_traffic` is whether the program's fault, page and
/// diff traffic repeats run to run; where processes write one page in the
/// same epoch it does not, and those counts, the `Base` cycles and the
/// bytes that follow from them are left out.
pub(crate) fn assert_same_report(
    what: &str,
    runs: &RunReport,
    words: &RunReport,
    page_traffic: bool,
) {
    assert_eq!(runs.races.reports(), words.races.reports(), "{what}: races");
    assert_eq!(runs.det_stats, words.det_stats, "{what}: detector stats");
    assert_eq!(runs.traces, words.traces, "{what}: trace events");
    assert_eq!(
        runs.recovery.checkpoints_taken, words.recovery.checkpoints_taken,
        "{what}: checkpoints"
    );
    for (r, w) in runs.nodes.iter().zip(&words.nodes) {
        let what = format!("{what}: node {}", r.proc.0);
        assert_eq!(
            (r.shared_calls, r.private_calls),
            (w.shared_calls, w.private_calls),
            "{what}: analysis calls"
        );
        assert_eq!(r.cats[1..], w.cats[1..], "{what}: overhead cycles");
        let (mut rs, mut ws) = (r.stats, w.stats);
        for s in [&mut rs, &mut ws] {
            if !page_traffic {
                s.read_faults = 0;
                s.write_faults = 0;
                s.pages_sent = 0;
                s.diff_words = 0;
            }
            // The meter counts resident pages' twins and the checkpoint
            // store's live images, which peers evict on their own schedule.
            if !page_traffic || runs.recovery.checkpoints_taken > 0 {
                s.retained_bytes_high_water = 0;
            }
        }
        if page_traffic {
            assert_eq!(r.cats[0], w.cats[0], "{what}: base cycles");
        }
        assert_eq!(rs, ws, "{what}: counters");
    }
    if page_traffic {
        assert_eq!(runs.net, words.net, "{what}: messages and bytes");
        assert_eq!(
            runs.recovery.bytes_snapshotted, words.recovery.bytes_snapshotted,
            "{what}: checkpoint image bytes"
        );
    }
}
