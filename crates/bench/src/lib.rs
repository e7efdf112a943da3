//! # versa-bench — figure & table regeneration harness
//!
//! One function per table/figure of the paper's evaluation section
//! (§V). Each returns a [`FigureResult`] — a typed table that the
//! `figures` binary prints and the shape tests in `tests/` assert on.
//!
//! Absolute numbers come from the simulated platform and are not
//! expected to match the paper's testbed; the *shapes* (who wins, by
//! roughly what factor, where crossovers fall) are the reproduction
//! target. `EXPERIMENTS.md` records both.

#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
mod result;

pub use result::{Cell, FigureResult};

/// Problem scale selector: `Paper` uses the §V-A2 sizes; `Quick` shrinks
/// them (same tile structure) for fast CI runs. Controlled by the
/// `VERSA_SCALE` environment variable in the `figures` binary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The paper's §V problem sizes.
    Paper,
    /// Reduced sizes for tests and Criterion benches.
    Quick,
}

impl Scale {
    /// Read from `VERSA_SCALE` (`paper` | `quick`), defaulting to paper.
    pub fn from_env() -> Scale {
        match std::env::var("VERSA_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }
}

/// One point of the paper's resource sweep: number of GPUs and SMP
/// worker threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepPoint {
    /// GPU devices (paper: 1 or 2).
    pub gpus: usize,
    /// SMP worker threads (paper: 1–8).
    pub smp: usize,
}

impl SweepPoint {
    /// Label in the figures, e.g. `2G/4S`.
    pub(crate) fn label(&self) -> String {
        format!("{}G/{}S", self.gpus, self.smp)
    }
}

/// The paper's full resource sweep: {1, 2} GPUs × {1, 2, 4, 8} SMP
/// workers.
pub(crate) fn sweep() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for gpus in [1usize, 2] {
        for smp in [1usize, 2, 4, 8] {
            out.push(SweepPoint { gpus, smp });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_paper_matrix() {
        let s = sweep();
        assert_eq!(s.len(), 8);
        assert!(s.contains(&SweepPoint { gpus: 1, smp: 1 }));
        assert!(s.contains(&SweepPoint { gpus: 2, smp: 8 }));
        assert_eq!(SweepPoint { gpus: 2, smp: 4 }.label(), "2G/4S");
    }

    #[test]
    fn scale_env_parsing_defaults_to_paper() {
        // Note: avoids mutating the process env; just checks default.
        if std::env::var("VERSA_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Paper);
        }
    }
}
