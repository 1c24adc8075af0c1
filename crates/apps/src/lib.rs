//! The paper's four evaluation applications, ported to the CVM DSM.
//!
//! These are the programs of Table 1, re-implemented against
//! [`cvm_dsm::ProcHandle`] with the same sharing patterns, synchronization
//! structure, and — crucially — the same races:
//!
//! * [`fft`] — a 1-D complex FFT over a 64×64×16 grid using the six-step
//!   transpose method; barrier-only, with heavy transpose-phase false
//!   sharing but no races;
//! * [`sor`] — red-black successive over-relaxation on a 512×512 grid with
//!   page-aligned rows; barrier-only and entirely free of unsynchronized
//!   sharing (the paper's 0 % row of Table 3);
//! * [`tsp`] — branch-and-bound traveling salesman, whose workers read the
//!   global tour bound *without* synchronization as a deliberate
//!   performance trade-off: a benign read-write data race the detector
//!   must find;
//! * [`water`] — an N-squared molecular dynamics kernel in the mould of
//!   Splash2 Water-Nsquared, with fine-grained per-partition force locks
//!   and (in the buggy variant) an unsynchronized global virial
//!   accumulation: the write-write race that was a real reported bug.
//!
//! Each module provides parameters matching the paper's input sets, a
//! sequential reference for correctness checking, and a `run` entry point
//! returning the DSM [`cvm_dsm::RunReport`] plus application-level results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
#[cfg(test)]
mod run_equivalence;
pub mod sor;
pub mod tsp;
pub mod water;

/// The four applications, for harness iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    /// Fast Fourier transform.
    Fft,
    /// Red-black successive over-relaxation.
    Sor,
    /// Branch-and-bound traveling salesman.
    Tsp,
    /// N-squared molecular dynamics.
    Water,
}

impl App {
    /// All four, in the paper's table order.
    pub const ALL: [App; 4] = [App::Fft, App::Sor, App::Tsp, App::Water];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Fft => "FFT",
            App::Sor => "SOR",
            App::Tsp => "TSP",
            App::Water => "Water",
        }
    }

    /// The paper's input-set description (Table 1).
    pub fn input_set(self) -> &'static str {
        match self {
            App::Fft => "64 x 64 x 16",
            App::Sor => "512x512",
            App::Tsp => "19 cities",
            App::Water => "216 mols, 5 iters",
        }
    }

    /// The paper's synchronization column (Table 1).
    pub fn sync_kinds(self) -> &'static str {
        match self {
            App::Fft | App::Sor => "barrier",
            App::Tsp => "lock",
            App::Water => "lock, barrier",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_table_metadata() {
        assert_eq!(App::ALL.len(), 4);
        assert_eq!(App::Fft.name(), "FFT");
        assert_eq!(App::Water.input_set(), "216 mols, 5 iters");
        assert_eq!(App::Tsp.sync_kinds(), "lock");
        assert_eq!(App::Sor.sync_kinds(), "barrier");
    }
}
