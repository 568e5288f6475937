//! Table 4 — normalized iterations vs process count (crystm02).

use crate::output::{f2, Table};
use crate::runners::{lineup_labels, run_standard_lineup, workload};
use crate::Scale;

/// Process counts exercised per scale (the paper uses 4–256; quick runs
/// stop at 64 because the shrunk analog's blocks get too thin beyond).
fn process_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 16, 64],
        Scale::Full => vec![4, 16, 64, 256],
    }
}

/// Reproduces Table 4: for crystm02 (fixed-size problem) the number of
/// iterations per scheme is normalized to fault-free — and stays constant
/// across process counts, because the recovery mathematics depends on the
/// *data* lost, not on how many processes hold it... up to the caveat that
/// a larger process count means a *smaller* lost block per fault.
pub fn run(scale: Scale) -> Vec<Table> {
    let (a, b) = workload("crystm02", scale);
    let mut headers = vec!["#p".to_string()];
    headers.extend(lineup_labels());
    let mut t = Table::new(
        "Table 4 — normalized iterations vs process count (crystm02, 10 faults)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for p in process_counts(scale) {
        let (ff, reports) = run_standard_lineup(&a, &b, p, 10, "crystm02-t4", scale);
        let mut row = vec![p.to_string()];
        for r in &reports {
            row.push(f2(r.iterations as f64 / ff.iterations.max(1) as f64));
        }
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::{evenly_spaced_faults, run_fault_free, SchemeRun};
    use rsls_core::Scheme;

    #[test]
    fn rd_is_invariant_across_process_counts() {
        // The cheapest slice of the Table 4 claim: RD tracks FF at any p.
        let (a, b) = workload("wathen100", Scale::Quick);
        for p in [4usize, 16] {
            let ff = run_fault_free(&a, &b, p, Scale::Quick);
            let faults = evenly_spaced_faults(5, ff.iterations, p, "t4-rd");
            let rd = SchemeRun::new(&a, &b, p, Scheme::Dmr)
                .faults(faults)
                .tag("t4-rd")
                .execute(Scale::Quick);
            assert_eq!(rd.iterations, ff.iterations, "p = {p}");
        }
    }
}
