//! The runtime analysis routine.
//!
//! Each instrumented load/store calls this routine, which decides whether
//! the address falls in the shared segment (one range comparison) and, if
//! so, reports it so the DSM can set the per-page bitmap bit.  The majority
//! of dynamic calls turn out to be for private data (Table 3's last two
//! columns) — the static analysis only tracks references within a basic
//! block and must conservatively instrument unknown pointers (§6.5).

use cvm_page::GAddr;

/// Per-process instance of the analysis routine, with its dynamic counters.
#[derive(Clone, Debug, Default)]
pub struct AnalysisRuntime {
    shared_calls: u64,
    private_calls: u64,
}

impl AnalysisRuntime {
    /// Creates a runtime with zeroed counters.
    pub fn new() -> Self {
        AnalysisRuntime::default()
    }

    /// Reconstructs a runtime from checkpointed counters.
    pub fn from_counts(shared_calls: u64, private_calls: u64) -> Self {
        AnalysisRuntime {
            shared_calls,
            private_calls,
        }
    }

    /// The access check: returns `true` if `addr` is shared, counting the
    /// call either way.
    #[inline]
    pub fn check(&mut self, addr: GAddr) -> bool {
        let shared = addr.is_shared();
        if shared {
            self.shared_calls += 1;
        } else {
            self.private_calls += 1;
        }
        shared
    }

    /// Records `calls` checks of addresses the caller has already placed in
    /// the shared segment: what `calls` invocations of [`check`](Self::check)
    /// on the words of one contiguous shared run count.
    #[inline]
    pub fn count_shared(&mut self, calls: u64) {
        self.shared_calls += calls;
    }

    /// Records a call for an address known private without a check
    /// (used when the application models scratch-data traffic explicitly).
    #[inline]
    pub fn count_private(&mut self, calls: u64) {
        self.private_calls += calls;
    }

    /// Dynamic calls that referenced shared data.
    pub fn shared_calls(&self) -> u64 {
        self.shared_calls
    }

    /// Dynamic calls that referenced private data.
    pub fn private_calls(&self) -> u64 {
        self.private_calls
    }

    /// All dynamic calls to the analysis routine.
    pub fn total_calls(&self) -> u64 {
        self.shared_calls + self.private_calls
    }

    /// Merges another runtime's counters (for cluster-wide totals).
    pub fn merge(&mut self, other: &AnalysisRuntime) {
        self.shared_calls += other.shared_calls;
        self.private_calls += other.private_calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_page::SHARED_BASE;

    #[test]
    fn check_discriminates_and_counts() {
        let mut rt = AnalysisRuntime::new();
        assert!(rt.check(GAddr(SHARED_BASE)));
        assert!(rt.check(GAddr(SHARED_BASE + 4096)));
        assert!(!rt.check(GAddr(0x1000)));
        assert_eq!(rt.shared_calls(), 2);
        assert_eq!(rt.private_calls(), 1);
        assert_eq!(rt.total_calls(), 3);
    }

    #[test]
    fn count_private_bulk() {
        let mut rt = AnalysisRuntime::new();
        rt.count_private(100);
        assert_eq!(rt.private_calls(), 100);
        assert_eq!(rt.shared_calls(), 0);
    }

    #[test]
    fn count_shared_equals_checking_each_word() {
        let mut run = AnalysisRuntime::new();
        run.count_shared(3);
        let mut words = AnalysisRuntime::new();
        for i in 0..3 {
            words.check(GAddr(SHARED_BASE).word(i));
        }
        assert_eq!(run.shared_calls(), words.shared_calls());
        assert_eq!(run.private_calls(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AnalysisRuntime::new();
        a.check(GAddr(SHARED_BASE));
        let mut b = AnalysisRuntime::new();
        b.check(GAddr(1));
        b.count_private(9);
        a.merge(&b);
        assert_eq!(a.total_calls(), 11);
        assert_eq!(a.shared_calls(), 1);
    }
}
