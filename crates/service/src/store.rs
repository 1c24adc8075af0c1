//! Bounded, deduplicating result store.
//!
//! Every seed's [`OutcomeImage`] — the value the pool journals as its
//! `SeedDone` record — merges here through [`ResultStore::merge`], the one
//! dedup fold, keyed by the stable
//! [`RaceReport::fingerprint`](cvm_race::RaceReport::fingerprint): across a
//! job's whole seed range each distinct race is stored once, with a hit
//! count, the rendered report the image carries, and the first seed that
//! produced it.  A running daemon and [`Daemon::open`](crate::Daemon::open)
//! call the same `merge` and [`seal`](ResultStore::seal), so restored
//! results cannot drift from live ones.  Retention is bounded in *bytes*:
//! when the store crosses its budget, the oldest sealed jobs' entries are
//! evicted whole — never a partial job — and the eviction is counted, not
//! silent.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

use crate::job::JobId;
use crate::persist::OutcomeImage;

/// One deduplicated race across a job's seed range.
#[derive(Clone, Debug)]
pub struct DedupedRace {
    /// Stable fingerprint (dedup key).
    pub fingerprint: u64,
    /// Representative rendered report (first occurrence, symbolized).
    pub rendered: String,
    /// Reports folded into this entry, across all the job's seeds.
    pub hits: u64,
    /// First seed whose run produced it.
    pub first_seed: u64,
}

/// A job's deduplicated result set.
#[derive(Clone, Debug, Default)]
pub struct JobRaces {
    /// Distinct races, ordered by fingerprint.
    pub races: Vec<DedupedRace>,
    /// Total (pre-dedup) reports merged across the job's seeds.
    pub reports_merged: u64,
}

#[derive(Debug, Default)]
struct JobEntry {
    by_print: BTreeMap<u64, DedupedRace>,
    reports_merged: u64,
    bytes: u64,
    sealed: bool,
}

impl JobEntry {
    /// A run's new races enter with no hits; then each occurrence counts.
    fn merge(&mut self, seed: u64, occurrences: &[u64], rendered: &[(u64, String)]) {
        for (print, text) in rendered {
            self.by_print.entry(*print).or_insert_with(|| {
                // Entry overhead: fingerprint + counters + map node, called
                // 48 bytes, plus the rendered text.
                self.bytes += 48 + text.len() as u64;
                DedupedRace {
                    fingerprint: *print,
                    rendered: text.clone(),
                    hits: 0,
                    first_seed: seed,
                }
            });
        }
        for print in occurrences {
            if let Some(race) = self.by_print.get_mut(print) {
                race.hits += 1;
            }
        }
        self.reports_merged += occurrences.len() as u64;
    }
}

/// Store-wide counters, surfaced through daemon stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently retained.
    pub bytes_live: u64,
    /// Jobs whose results were evicted by the retention bound.
    pub jobs_evicted: u64,
    /// Distinct races currently retained, across all jobs.
    pub distinct_races: u64,
}

/// The bounded store.  All methods take `&self`; a single mutex guards the
/// interior (result merging is far off any hot path).
#[derive(Debug)]
pub struct ResultStore {
    inner: Mutex<StoreInner>,
    budget_bytes: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    jobs: BTreeMap<JobId, JobEntry>,
    /// Jobs in seal order: the eviction queue (oldest sealed first).
    sealed_order: VecDeque<JobId>,
    jobs_evicted: u64,
}

impl ResultStore {
    /// A store retaining at most `budget_bytes` of deduplicated results.
    pub fn new(budget_bytes: u64) -> Self {
        ResultStore::reopened(budget_bytes, 0)
    }

    /// [`new`](Self::new) for a reopened data directory, whose journal has
    /// already counted `jobs_evicted` evictions.
    pub(crate) fn reopened(budget_bytes: u64, jobs_evicted: u64) -> Self {
        ResultStore {
            inner: Mutex::new(StoreInner {
                jobs_evicted,
                ..StoreInner::default()
            }),
            budget_bytes,
        }
    }

    /// Merges one seed's outcome into `job`'s entry.  A `Done` image
    /// creates the entry even when its run found no races; `Failed` and
    /// `Cancelled` images change nothing.  Returns the jobs the byte budget
    /// evicted to make room (so a durable daemon can journal the
    /// evictions).
    pub fn merge(&self, job: JobId, seed: u64, image: &OutcomeImage) -> Vec<JobId> {
        let OutcomeImage::Done {
            occurrences,
            rendered,
            ..
        } = image
        else {
            return Vec::new();
        };
        let mut inner = self.inner.lock();
        inner
            .jobs
            .entry(job)
            .or_default()
            .merge(seed, occurrences, rendered);
        self.enforce_budget(&mut inner)
    }

    /// Marks `job` complete: its entry becomes evictable.  In-flight jobs
    /// are never evicted, so a running job's dedup state cannot vanish
    /// under it.  Returns the jobs the byte budget evicted.
    pub fn seal(&self, job: JobId) -> Vec<JobId> {
        let mut inner = self.inner.lock();
        let known = match inner.jobs.get_mut(&job) {
            Some(entry) if !entry.sealed => {
                entry.sealed = true;
                true
            }
            Some(_) => false,
            // A job with zero reports still seals an (empty) entry so
            // `races` distinguishes "no races" from "evicted/unknown".
            None => {
                inner.jobs.insert(
                    job,
                    JobEntry {
                        sealed: true,
                        ..JobEntry::default()
                    },
                );
                true
            }
        };
        if known {
            inner.sealed_order.push_back(job);
        }
        self.enforce_budget(&mut inner)
    }

    /// The deduplicated result set of `job`: `None` when the job is
    /// unknown or its results were evicted.
    pub fn races(&self, job: JobId) -> Option<JobRaces> {
        let inner = self.inner.lock();
        inner.jobs.get(&job).map(|entry| JobRaces {
            races: entry.by_print.values().cloned().collect(),
            reports_merged: entry.reports_merged,
        })
    }

    /// Distinct races currently retained for `job` (0 when evicted).
    pub fn distinct_count(&self, job: JobId) -> usize {
        let inner = self.inner.lock();
        inner.jobs.get(&job).map_or(0, |e| e.by_print.len())
    }

    /// Store-wide counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            bytes_live: inner.jobs.values().map(|e| e.bytes).sum(),
            jobs_evicted: inner.jobs_evicted,
            distinct_races: inner.jobs.values().map(|e| e.by_print.len() as u64).sum(),
        }
    }

    fn enforce_budget(&self, inner: &mut StoreInner) -> Vec<JobId> {
        let mut evicted = Vec::new();
        let mut live: u64 = inner.jobs.values().map(|e| e.bytes).sum();
        while live > self.budget_bytes {
            let Some(oldest) = inner.sealed_order.pop_front() else {
                break; // Only in-flight jobs left: nothing evictable.
            };
            if let Some(entry) = inner.jobs.remove(&oldest) {
                live = live.saturating_sub(entry.bytes);
                inner.jobs_evicted += 1;
                evicted.push(oldest);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_dsm::{Cluster, DsmConfig, RunReport};

    fn racy_report(seed: u64) -> RunReport {
        let mut cfg = DsmConfig::new(2);
        cfg.net_loss = Some(cvm_dsm::FaultPlan::clean(seed));
        Cluster::run(
            cfg,
            |alloc| alloc.alloc("w", 64).unwrap(),
            |h, &w| {
                h.write(w, h.proc() as u64);
                h.barrier();
            },
        )
        .expect("healthy run")
    }

    /// The image the pool journals for a completed run.
    fn image(report: &RunReport) -> OutcomeImage {
        OutcomeImage::from_report(report, 0)
    }

    #[test]
    fn dedups_across_seeds() {
        let store = ResultStore::new(u64::MAX);
        let job = JobId(1);
        let a = racy_report(1);
        let b = racy_report(2);
        store.merge(job, 1, &image(&a));
        store.merge(job, 2, &image(&b));
        store.seal(job);
        let races = store.races(job).expect("sealed job retained");
        // Deterministic workload: both seeds produce the same race set,
        // so dedup folds them.
        assert_eq!(races.races.len(), a.races.distinct_fingerprints().len());
        assert_eq!(races.reports_merged, (a.races.len() + b.races.len()) as u64);
        assert!(races.races.iter().all(|r| r.hits >= 2));
        assert!(races.races.iter().all(|r| r.first_seed == 1));
        assert!(races.races.iter().all(|r| r.rendered.contains("DATA RACE")));
    }

    #[test]
    fn sealed_empty_job_reads_as_no_races() {
        let store = ResultStore::new(u64::MAX);
        store.seal(JobId(9));
        let races = store.races(JobId(9)).expect("sealed job known");
        assert!(races.races.is_empty());
        assert!(store.races(JobId(10)).is_none(), "unknown job is None");
    }

    #[test]
    fn budget_evicts_oldest_sealed_jobs_whole() {
        let report = image(&racy_report(1));
        let store = ResultStore::new(u64::MAX);
        store.merge(JobId(1), 1, &report);
        let one_job_bytes = store.stats().bytes_live;
        assert!(one_job_bytes > 0);

        // Budget fits two jobs but not three.
        let store = ResultStore::new(one_job_bytes * 2);
        for id in 1..=3u64 {
            store.merge(JobId(id), 1, &report);
            store.seal(JobId(id));
        }
        let stats = store.stats();
        assert_eq!(stats.jobs_evicted, 1, "third job must evict the first");
        assert!(store.races(JobId(1)).is_none(), "oldest evicted");
        assert!(store.races(JobId(3)).is_some(), "newest retained");
        assert!(stats.bytes_live <= one_job_bytes * 2);
    }

    #[test]
    fn in_flight_jobs_are_never_evicted() {
        let report = image(&racy_report(1));
        let probe = ResultStore::new(u64::MAX);
        probe.merge(JobId(1), 1, &report);
        let one_job_bytes = probe.stats().bytes_live;

        // Budget below a single job, but the job is not sealed: it must
        // survive (dedup state cannot vanish under a running job).
        let store = ResultStore::new(one_job_bytes / 2);
        store.merge(JobId(1), 1, &report);
        assert!(store.races(JobId(1)).is_some());
        assert_eq!(store.stats().jobs_evicted, 0);
        // Sealing makes it evictable and the budget bites.
        store.seal(JobId(1));
        assert!(store.races(JobId(1)).is_none());
        assert_eq!(store.stats().jobs_evicted, 1);
    }

    /// Two distinct races, one of them occurring twice in the run.
    fn done_image() -> OutcomeImage {
        OutcomeImage::Done {
            retries: 1,
            occurrences: vec![10, 11, 10],
            rendered: vec![(10, "race ten".into()), (11, "race eleven".into())],
            recovery: [1, 2, 3, 4],
        }
    }

    #[test]
    fn image_merges_fold_in_arrival_order() {
        let store = ResultStore::new(u64::MAX);
        // Seed 8 lands first (journal order), seed 7 second.
        store.merge(JobId(1), 8, &done_image());
        store.merge(JobId(1), 7, &done_image());
        let races = store.races(JobId(1)).expect("entry created");
        assert_eq!(
            races.reports_merged, 6,
            "three occurrences per seed, two seeds"
        );
        assert_eq!(races.races.len(), 2);
        let ten = races.races.iter().find(|r| r.fingerprint == 10).unwrap();
        assert_eq!(ten.hits, 4, "duplicate occurrence folds per seed too");
        assert_eq!(ten.first_seed, 8, "first in arrival order, not value");
        assert_eq!(ten.rendered, "race ten");
    }

    #[test]
    fn only_done_images_create_entries() {
        let store = ResultStore::new(u64::MAX);
        let race_free = OutcomeImage::Done {
            retries: 0,
            occurrences: Vec::new(),
            rendered: Vec::new(),
            recovery: [0; 4],
        };
        store.merge(JobId(1), 1, &race_free);
        let races = store
            .races(JobId(1))
            .expect("a race-free run creates the entry");
        assert!(races.races.is_empty());
        assert_eq!(races.reports_merged, 0);

        let failed = OutcomeImage::Failed {
            error: "boom".into(),
            transient: false,
            retries: 0,
        };
        store.merge(JobId(2), 1, &failed);
        store.merge(JobId(3), 1, &OutcomeImage::Cancelled);
        assert!(store.races(JobId(2)).is_none(), "failed seed: no entry");
        assert!(store.races(JobId(3)).is_none(), "cancelled seed: no entry");
        assert_eq!(store.stats().bytes_live, 0);
    }
}
