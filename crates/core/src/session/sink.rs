//! Streaming report sinks.
//!
//! A [`ReportSink`] observes a session while it runs: it is told how many
//! cells were declared, receives every completed [`SessionCell`] **in
//! deterministic declaration order** (the fan-out engine buffers out-of-order
//! completions and releases the contiguous prefix), and finally sees the
//! merged [`SessionReport`]. Because the delivery order is the declaration
//! order regardless of thread scheduling, a sink's observable behaviour is
//! identical for parallel and sequential execution.
//!
//! Two implementations cover the common needs: [`CellCollector`] keeps the
//! cells in memory, and [`ProgressLog`] narrates progress to a writer (stderr
//! for the bench binaries).

use std::io::Write;

use super::{SessionCell, SessionReport};

/// Observer of a running session.
///
/// Sinks must be `Send`: cells are delivered from whichever worker thread
/// completes the contiguous prefix, serialised under the session's merge
/// lock, so delivery is ordered but may hop threads.
pub trait ReportSink: Send {
    /// Called once before execution with the number of declared cells.
    fn on_start(&mut self, _cell_count: usize) {}

    /// Called once per cell, in declaration order.
    fn on_cell(&mut self, _cell: &SessionCell) {}

    /// Called once after execution with the merged report.
    fn on_complete(&mut self, _report: &SessionReport) {}
}

/// Collects every cell in memory, in declaration order.
#[derive(Debug, Default)]
pub struct CellCollector {
    /// The cells received so far.
    pub cells: Vec<SessionCell>,
}

impl CellCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReportSink for CellCollector {
    fn on_cell(&mut self, cell: &SessionCell) {
        self.cells.push(cell.clone());
    }
}

/// Logs one line per completed cell to a writer.
pub struct ProgressLog<W: Write + Send> {
    out: W,
    total: usize,
    done: usize,
}

impl<W: Write + Send> ProgressLog<W> {
    /// Logs to an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            total: 0,
            done: 0,
        }
    }
}

impl ProgressLog<std::io::Stderr> {
    /// Logs to standard error — what the bench binaries use.
    pub fn stderr() -> Self {
        Self::new(std::io::stderr())
    }
}

impl<W: Write + Send> ReportSink for ProgressLog<W> {
    fn on_start(&mut self, cell_count: usize) {
        self.total = cell_count;
        self.done = 0;
    }

    fn on_cell(&mut self, cell: &SessionCell) {
        self.done += 1;
        // Logging is best-effort; a closed pipe must not kill the session.
        let _ = writeln!(
            self.out,
            "[{}/{}] {} x {} seed {}: {} requests, {} cold starts",
            self.done,
            self.total,
            cell.policy,
            cell.source,
            cell.seed,
            cell.report.requests,
            cell.report.cold_starts,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SourceKind;
    use faas_platform::SimReport;
    use fntrace::RegionId;

    fn cell(i: usize) -> SessionCell {
        SessionCell {
            policy_index: i,
            source_index: 0,
            policy: format!("policy-{i}"),
            source: "src".to_string(),
            source_kind: SourceKind::Fixed,
            seed: 7,
            region: RegionId::new(2),
            report: SimReport::default(),
        }
    }

    #[test]
    fn collector_keeps_cells_in_delivery_order() {
        let mut collector = CellCollector::new();
        collector.on_start(2);
        collector.on_cell(&cell(0));
        collector.on_cell(&cell(1));
        assert_eq!(collector.cells.len(), 2);
        assert_eq!(collector.cells[1].policy, "policy-1");
    }

    #[test]
    fn progress_log_counts_cells() {
        let mut buffer = Vec::new();
        {
            let mut log = ProgressLog::new(&mut buffer);
            log.on_start(2);
            log.on_cell(&cell(0));
            log.on_cell(&cell(1));
        }
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("[1/2] policy-0 x src seed 7"));
        assert!(text.contains("[2/2] policy-1 x src seed 7"));
    }
}
