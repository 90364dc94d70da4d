//! Per-phase time attribution — the data behind the paper's Figure 4
//! (scaling of the execution-time components) and Figure 5 (scaling of
//! the individual communication steps).

use serde::Serialize;

/// The application phase categories the paper reports. `IoProc` groups
//  inputhour + pretrans + outputhour; `Chemistry` groups chemical
/// kinetics + vertical transport + aerosol, exactly as in §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PhaseCategory {
    /// inputhour, pretrans, outputhour (sequential I/O processing).
    IoProc,
    /// Horizontal transport solves.
    Transport,
    /// Chemistry + vertical transport + aerosol.
    Chemistry,
    /// Data redistribution (compiler-generated communication).
    Communication,
    /// The coupled population-exposure module.
    PopExp,
}

impl PhaseCategory {
    pub const ALL: [PhaseCategory; 5] = [
        PhaseCategory::IoProc,
        PhaseCategory::Transport,
        PhaseCategory::Chemistry,
        PhaseCategory::Communication,
        PhaseCategory::PopExp,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            PhaseCategory::IoProc => "I/O Processing",
            PhaseCategory::Transport => "Transport",
            PhaseCategory::Chemistry => "Chemistry",
            PhaseCategory::Communication => "Communication",
            PhaseCategory::PopExp => "PopExp",
        }
    }

    fn index(&self) -> usize {
        match self {
            PhaseCategory::IoProc => 0,
            PhaseCategory::Transport => 1,
            PhaseCategory::Chemistry => 2,
            PhaseCategory::Communication => 3,
            PhaseCategory::PopExp => 4,
        }
    }
}

/// The concrete program phases of one Airshed hour — the vocabulary of
/// the execution-plan IR (`airshed-core`'s `plan::PhaseNode`). Every
/// kind maps to exactly one accounting [`PhaseCategory`] and one stable
/// trace label, so Gantt rows, Figure 4 columns, and plan nodes cannot
/// drift apart: a phase is *named* here once and every layer derives its
/// label and its accounting bucket from the same enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PhaseKind {
    /// `inputhour`: read and decode one hour of meteorology/emissions.
    InputHour,
    /// `pretrans`: assemble the hour's transport operators.
    PreTrans,
    /// A horizontal-transport half step (both halves of the split).
    Transport,
    /// Chemical kinetics + vertical transport over grid columns.
    Chemistry,
    /// The sequential bulk aerosol step (replicated data).
    Aerosol,
    /// `outputhour`: write the hour's concentration fields.
    OutputHour,
}

impl PhaseKind {
    pub const ALL: [PhaseKind; 6] = [
        PhaseKind::InputHour,
        PhaseKind::PreTrans,
        PhaseKind::Transport,
        PhaseKind::Chemistry,
        PhaseKind::Aerosol,
        PhaseKind::OutputHour,
    ];

    /// The accounting category this phase's time is attributed to —
    /// `IoProc` groups inputhour + pretrans + outputhour and `Chemistry`
    /// groups kinetics + aerosol, exactly as in the paper's §2.2.
    pub const fn category(self) -> PhaseCategory {
        match self {
            PhaseKind::InputHour | PhaseKind::PreTrans | PhaseKind::OutputHour => {
                PhaseCategory::IoProc
            }
            PhaseKind::Transport => PhaseCategory::Transport,
            PhaseKind::Chemistry | PhaseKind::Aerosol => PhaseCategory::Chemistry,
        }
    }

    /// The stable trace/Gantt row label.
    pub const fn label(self) -> &'static str {
        match self {
            PhaseKind::InputHour => "inputhour",
            PhaseKind::PreTrans => "pretrans",
            PhaseKind::Transport => "transport",
            PhaseKind::Chemistry => "chemistry",
            PhaseKind::Aerosol => "aerosol",
            PhaseKind::OutputHour => "outputhour",
        }
    }
}

/// Accumulated seconds per phase category.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseBreakdown {
    seconds: [f64; 5],
}

impl PhaseBreakdown {
    pub fn new() -> PhaseBreakdown {
        PhaseBreakdown::default()
    }

    pub fn add(&mut self, cat: PhaseCategory, secs: f64) {
        debug_assert!(secs >= 0.0);
        self.seconds[cat.index()] += secs;
    }

    pub fn get(&self, cat: PhaseCategory) -> f64 {
        self.seconds[cat.index()]
    }

    /// Total attributed time.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Merge another breakdown (e.g. from a pipeline stage).
    pub fn absorb(&mut self, other: &PhaseBreakdown) {
        for i in 0..self.seconds.len() {
            self.seconds[i] += other.seconds[i];
        }
    }
}

/// A labelled communication step record: which redistribution, and what it
/// cost — the rows of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct CommStepRecord {
    pub label: &'static str,
    pub seconds: f64,
    /// Per-phase occurrence count folded into `seconds`.
    pub count: usize,
}

/// Accumulates per-label communication step times across a run.
#[derive(Debug, Clone, Default)]
pub struct CommLog {
    records: Vec<CommStepRecord>,
}

impl CommLog {
    pub fn new() -> CommLog {
        CommLog::default()
    }

    /// Record one occurrence of a labelled communication step.
    pub fn record(&mut self, label: &'static str, seconds: f64) {
        if let Some(r) = self.records.iter_mut().find(|r| r.label == label) {
            r.seconds += seconds;
            r.count += 1;
        } else {
            self.records.push(CommStepRecord {
                label,
                seconds,
                count: 1,
            });
        }
    }

    pub fn records(&self) -> &[CommStepRecord] {
        &self.records
    }

    /// Total time for one label.
    pub fn total_for(&self, label: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.seconds)
            .sum()
    }

    /// Total communication time.
    pub fn total(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = PhaseBreakdown::new();
        b.add(PhaseCategory::Chemistry, 10.0);
        b.add(PhaseCategory::Chemistry, 5.0);
        b.add(PhaseCategory::Transport, 3.0);
        assert_eq!(b.get(PhaseCategory::Chemistry), 15.0);
        assert_eq!(b.get(PhaseCategory::Transport), 3.0);
        assert_eq!(b.get(PhaseCategory::IoProc), 0.0);
        assert_eq!(b.total(), 18.0);
    }

    #[test]
    fn absorb_merges() {
        let mut a = PhaseBreakdown::new();
        a.add(PhaseCategory::IoProc, 2.0);
        let mut b = PhaseBreakdown::new();
        b.add(PhaseCategory::IoProc, 3.0);
        b.add(PhaseCategory::PopExp, 1.0);
        a.absorb(&b);
        assert_eq!(a.get(PhaseCategory::IoProc), 5.0);
        assert_eq!(a.get(PhaseCategory::PopExp), 1.0);
    }

    #[test]
    fn comm_log_groups_by_label() {
        let mut log = CommLog::new();
        log.record("D_Repl->D_Trans", 0.5);
        log.record("D_Trans->D_Chem", 0.2);
        log.record("D_Repl->D_Trans", 0.5);
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.total_for("D_Repl->D_Trans"), 1.0);
        assert_eq!(log.total(), 1.2);
        let r = &log.records()[0];
        assert_eq!(r.count, 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PhaseCategory::IoProc.label(), "I/O Processing");
        assert_eq!(PhaseCategory::ALL.len(), 5);
    }
}
