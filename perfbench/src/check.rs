//! Output checks against reference outcomes stored with the benchmark.
//!
//! Each deterministic point's full `GpuRunReport` (cycles, every counter,
//! `warp_retired`, ...) is reduced to a digest of its `Debug` rendering; a
//! failed point to a digest of its error. A chaos-injected point cannot
//! match a stored report, so it is checked against the paper's invariant
//! instead: the same `warp_retired` and committed count as its clean run.

use crate::sweep::Point;
use gex::journal::digest;
use gex::{GpuRunReport, SimError};
use std::collections::HashMap;

/// The reference outcomes, one line per grid point:
/// `<workload> <point key> <outcome digest> <retirement digest>`.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Digest of everything a run reports.
pub fn report_digest(r: &GpuRunReport) -> u64 {
    digest(&format!("{r:?}"))
}

/// Digest of what the warps executed: per-warp retirement and the
/// committed total.
pub fn retire_digest(r: &GpuRunReport) -> u64 {
    digest(&format!("{:?}|{}", r.warp_retired, r.sm.committed))
}

/// Digest of a failed run's error.
pub fn error_digest(e: &SimError) -> u64 {
    digest(&format!("error|{e}"))
}

/// The typed kind of a simulation error, as named in per-layer metrics.
pub fn error_kind(e: &SimError) -> &'static str {
    match e {
        SimError::Watchdog(_) => "watchdog",
        SimError::Deadline(_) => "deadline",
        SimError::CycleLimit { .. } => "cycle_limit",
        SimError::NoFaultHandler { .. } => "no_fault_handler",
        SimError::Oversubscribed { .. } => "oversubscribed",
        SimError::Sm(_) => "sm",
        SimError::Mem(_) => "mem",
    }
}

/// Every kind [`error_kind`] can return.
pub const ERROR_KINDS: [&str; 7] = [
    "watchdog",
    "deadline",
    "cycle_limit",
    "no_fault_handler",
    "oversubscribed",
    "sm",
    "mem",
];

/// One reference line for a point's outcome.
pub fn reference_line(
    workload: &str,
    key: &str,
    result: &Result<GpuRunReport, SimError>,
) -> String {
    match result {
        Ok(r) => format!(
            "{workload} {key} {:016x} {:016x}",
            report_digest(r),
            retire_digest(r)
        ),
        Err(e) => format!("{workload} {key} {:016x} -", error_digest(e)),
    }
}

#[derive(Debug, Clone, Copy)]
struct Expected {
    outcome: u64,
    retire: Option<u64>,
}

/// Parsed reference outcomes.
#[derive(Debug, Default)]
pub struct Reference {
    by_key: HashMap<(String, String), Expected>,
}

impl Reference {
    /// Parse reference lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut by_key = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| {
                u64::from_str_radix(s, 16).map_err(|e| format!("reference line {}: {e}", n + 1))
            };
            let [workload, key, outcome, retire] = f[..] else {
                return Err(format!("reference line {}: expected 4 fields", n + 1));
            };
            let retire = if retire == "-" {
                None
            } else {
                Some(hex(retire)?)
            };
            by_key.insert(
                (workload.to_string(), key.to_string()),
                Expected {
                    outcome: hex(outcome)?,
                    retire,
                },
            );
        }
        Ok(Reference { by_key })
    }

    /// Check one point's outcome: a clean point must reproduce its
    /// reference exactly; an injected point must retire exactly what its
    /// clean run retired.
    pub fn check(
        &self,
        workload: &str,
        p: &Point,
        result: &Result<GpuRunReport, SimError>,
    ) -> Result<(), String> {
        let Some(want) = self.by_key.get(&(workload.to_string(), p.key.clone())) else {
            return Err("no reference outcome".to_string());
        };
        match (p.inject, result) {
            (None, Ok(r)) if report_digest(r) == want.outcome => Ok(()),
            (None, Err(e)) if error_digest(e) == want.outcome => Ok(()),
            (None, Ok(r)) => Err(format!(
                "report differs from the reference ({} cycles)",
                r.cycles
            )),
            (None, Err(e)) => Err(format!("failed unlike the reference: {e}")),
            (Some(_), Ok(r)) if Some(retire_digest(r)) == want.retire => Ok(()),
            (Some(seed), Ok(_)) => Err(format!(
                "injection seed {seed:#x} changed what the warps retired"
            )),
            (Some(seed), Err(e)) => Err(format!("injection seed {seed:#x}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_reference_parses_and_covers_every_grid() {
        let r = Reference::parse(REFERENCE).expect("reference parses");
        let count = |w: &str| r.by_key.keys().filter(|(g, _)| g == w).count();
        assert_eq!(count("resident_sweep"), 88);
        assert_eq!(count("paging_sweep"), 43);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Reference::parse("a b c").is_err());
        assert!(Reference::parse("a b zz 00").is_err());
        assert!(Reference::parse("# comment\n\na b 01 -").is_ok());
    }
}
