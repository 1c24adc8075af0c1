//! The application-facing API: what a CVM program sees.

use std::sync::Arc;

use cvm_page::GAddr;

use crate::pages::{shared_access, shared_run, Node, Words};
use crate::simtime::OverheadCat;

/// A process's handle onto the DSM: shared accesses, synchronization, and
/// the cost-model hooks applications use to model their private work.
///
/// One handle exists per simulated process, owned by its application
/// thread.  Shared memory is accessed a word at a time
/// ([`read`](Self::read), [`write`](Self::write)) or a contiguous run of
/// words at a time ([`read_run`](Self::read_run),
/// [`write_run`](Self::write_run)).  A run is the per-access routine
/// executed once per word, not a coarser granularity: `k` words charge `k`
/// base accesses and, under detection, `k` analysis calls, count `k` shared
/// reads or writes and set `k` bits in the page's word bitmap — exactly
/// what `k` word accesses leave.  What is batched is the bookkeeping: the
/// node lock is taken once per page segment of the run, the bits are set
/// with one mask per bitmap word, the data moves as a slice.  A fault in
/// the middle of a run is taken by the segment that raised it, which
/// retries once the page arrives; earlier segments are not repeated.
pub struct ProcHandle {
    pub(crate) node: Arc<Node>,
    pub(crate) proc: usize,
    pub(crate) nprocs: usize,
}

impl ProcHandle {
    /// This process's rank (0-based).
    pub fn proc(&self) -> usize {
        self.proc
    }

    /// Number of processes in the cluster.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Reads one shared word.
    pub fn read(&self, addr: GAddr) -> u64 {
        shared_access(&self.node, addr, false, 0, 0)
    }

    /// Writes one shared word.
    pub fn write(&self, addr: GAddr, value: u64) {
        shared_access(&self.node, addr, true, value, 0);
    }

    /// Reads one shared word, tagged with an access-site id (the modelled
    /// program counter used by §6.1 replay debugging).
    pub fn read_at(&self, addr: GAddr, site: u32) -> u64 {
        shared_access(&self.node, addr, false, 0, site)
    }

    /// Writes one shared word, tagged with an access-site id.
    pub fn write_at(&self, addr: GAddr, value: u64, site: u32) {
        shared_access(&self.node, addr, true, value, site);
    }

    /// Reads `out.len()` consecutive shared words starting at `addr`.  Runs
    /// carry no access-site id: a §6.1 watchpoint hit inside one reports
    /// site 0.
    pub fn read_run(&self, addr: GAddr, out: &mut [u64]) {
        shared_run(&self.node, addr, Words::Read(out));
    }

    /// Writes `words` to consecutive shared words starting at `addr`.
    pub fn write_run(&self, addr: GAddr, words: &[u64]) {
        shared_run(&self.node, addr, Words::Write(words));
    }

    /// Reads a shared `f64`.
    pub fn read_f64(&self, addr: GAddr) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Writes a shared `f64`.
    pub fn write_f64(&self, addr: GAddr, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Acquires a lock (release-consistent acquire access).
    pub fn lock(&self, lock: u32) {
        crate::locks::app_lock(&self.node, lock);
    }

    /// Releases a lock (release-consistent release access).
    pub fn unlock(&self, lock: u32) {
        crate::locks::app_unlock(&self.node, lock);
    }

    /// Global barrier; the race detector runs at the master (paper §4).
    pub fn barrier(&self) {
        crate::barrier::app_barrier(&self.node, false);
    }

    /// Global consolidation for lock-only programs (§6.3): runs the same
    /// gather/detect/release machinery outside any program barrier.
    pub fn consolidate(&self) {
        crate::barrier::app_barrier(&self.node, true);
    }

    /// Models `cycles` of private computation (loop bodies, arithmetic).
    pub fn compute(&self, cycles: u64) {
        let mut st = self.node.state.lock();
        st.clock.add(OverheadCat::Base, cycles);
    }

    /// Models `calls` instrumented accesses that turn out to be private
    /// data — the majority of dynamic analysis-routine calls (Table 3).
    ///
    /// Each costs one base access always, plus the procedure call and the
    /// access check when detection is on.
    pub fn private_traffic(&self, calls: u64) {
        let mut st = self.node.state.lock();
        let c = st.cfg.costs;
        st.clock.add(OverheadCat::Base, calls * c.access);
        if st.cfg.detect.enabled {
            st.clock.add(OverheadCat::ProcCall, calls * c.proc_call);
            st.clock
                .add(OverheadCat::AccessCheck, calls * c.access_check);
            st.analysis.count_private(calls);
        }
    }

    /// Number of races reported to this node so far (workers learn about
    /// races from barrier release messages).
    pub fn races_so_far(&self) -> usize {
        self.node.state.lock().race_log.len()
    }

    /// This node's current virtual time in cycles.
    pub fn virtual_now(&self) -> u64 {
        self.node.state.lock().clock.now()
    }

    /// First barrier epoch this process must actually execute: `0` on a
    /// fresh start, the restored epoch cursor after a checkpoint recovery.
    pub fn resume_epoch(&self) -> u64 {
        self.node.state.lock().resume_epoch
    }

    /// Epoch-entry cursor for recovery-aware programs.
    ///
    /// Structure the program as a sequence of [`EpochStepper::step`] calls,
    /// one per barrier phase; on a node restored from a checkpoint the
    /// already-completed phases are skipped (their effects live in the
    /// restored pages), and execution rejoins the cluster at the barrier
    /// loop.  On a fresh run every phase executes and each `step` costs
    /// exactly one `barrier()` — nothing else.
    pub fn epochs(&self) -> EpochStepper<'_> {
        EpochStepper {
            h: self,
            resume: self.resume_epoch(),
            next: 0,
        }
    }
}

/// Cursor pairing each barrier phase with its global epoch number so a
/// restored process can skip phases already covered by its checkpoint.
/// Created by [`ProcHandle::epochs`].
pub struct EpochStepper<'a> {
    h: &'a ProcHandle,
    resume: u64,
    next: u64,
}

impl EpochStepper<'_> {
    /// Runs `work` then `barrier()` — unless this phase completed before
    /// the checkpoint this node was restored from, in which case both are
    /// skipped (the restored state already reflects them, epoch cursor
    /// included).
    pub fn step(&mut self, work: impl FnOnce()) {
        if self.next >= self.resume {
            work();
            self.h.barrier();
        }
        self.next += 1;
    }

    /// The epoch the next [`step`](Self::step) call belongs to.
    pub fn next_epoch(&self) -> u64 {
        self.next
    }

    /// `true` while the cursor is still skipping checkpointed phases.
    pub fn skipping(&self) -> bool {
        self.next < self.resume
    }
}
