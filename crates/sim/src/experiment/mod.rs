//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§7). Each function returns a rendered text report; the
//! `experiments` binary in `ansmet-bench` dispatches them.
//!
//! Absolute numbers differ from the paper (synthetic, scaled datasets on
//! a from-scratch simulator); the reproduced quantities are the *shapes*:
//! which design wins, by roughly what factor, and where the crossovers
//! fall. `EXPERIMENTS.md` records paper-vs-measured for each entry.

mod ablation;
mod faults;
mod figures;
mod tables;
mod trace;

pub use ablation::ablation;
pub use faults::faults;
pub use figures::{fig1, fig10, fig11, fig12, fig3, fig6, fig7, fig8, fig9, loadbal};
pub use tables::{table2, table3, table4, table5};
pub use trace::{trace_bundle, TraceBundle, TRACED_QUERIES};

use ansmet_vecdata::SynthSpec;

/// Experiment scale: quick (CI-sized) or full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets, few queries — minutes on a laptop.
    Quick,
    /// The full synthetic sizes (Table 2 scaled) — tens of minutes.
    Full,
}

impl Scale {
    /// The scale's name as artifacts record it: `"quick"` or `"full"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Scale a dataset spec to this experiment size.
    pub fn spec(self, base: SynthSpec) -> SynthSpec {
        match self {
            Scale::Quick => {
                let n = (base.n_vectors / 10).clamp(400, 2_000);
                base.scaled(n, 3)
            }
            Scale::Full => {
                let q = base.n_queries.min(8);
                let n = base.n_vectors;
                base.scaled(n, q)
            }
        }
    }

    /// The datasets evaluated at this scale (all seven at full scale; a
    /// representative trio quick).
    pub fn datasets(self) -> Vec<SynthSpec> {
        match self {
            Scale::Quick => vec![
                self.spec(SynthSpec::sift()),
                self.spec(SynthSpec::deep()),
                self.spec(SynthSpec::gist()),
            ],
            Scale::Full => SynthSpec::all_paper_datasets()
                .into_iter()
                .map(|s| self.spec(s))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let s = Scale::Quick.spec(SynthSpec::sift());
        assert!(s.n_vectors <= 2000);
        assert_eq!(s.n_queries, 3);
    }

    #[test]
    fn dataset_lists() {
        assert_eq!(Scale::Quick.datasets().len(), 3);
        assert_eq!(Scale::Full.datasets().len(), 7);
    }
}
