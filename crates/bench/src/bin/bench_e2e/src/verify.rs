//! The benchmark's own output check. It shares no code with
//! `euler_core::verify`: the only inputs are the circuits the program
//! returned and the endpoints section of the `.ecsr` file it was given.

use euler_core::CircuitStep;
use euler_graph::MmapCsrSource;
use std::path::Path;

/// The `.ecsr` file a workload was given, opened once to check any number of
/// the circuits computed from it.
pub struct Reference(MmapCsrSource);

impl Reference {
    pub fn open(ecsr: &Path) -> Result<Reference, String> {
        MmapCsrSource::open(ecsr).map(Reference).map_err(|e| e.to_string())
    }

    pub fn check(&self, circuits: &[Vec<CircuitStep>]) -> Result<(), String> {
        check_circuits(self.0.csr_file().endpoints_flat(), circuits)
    }
}

/// Checks that `circuits` is an Euler tour of the graph whose edge `e` joins
/// `endpoints[2e]` and `endpoints[2e + 1]`: every circuit is closed,
/// consecutive steps chain, every edge id appears exactly once and with the
/// stored endpoints, and the step total equals the edge count.
pub fn check_circuits(endpoints: &[u64], circuits: &[Vec<CircuitStep>]) -> Result<(), String> {
    let num_edges = endpoints.len() / 2;
    let total: usize = circuits.iter().map(Vec::len).sum();
    if total != num_edges {
        return Err(format!("{total} steps for {num_edges} edges"));
    }
    let mut seen = vec![false; num_edges];
    for (c, circuit) in circuits.iter().enumerate() {
        let (Some(first), Some(last)) = (circuit.first(), circuit.last()) else {
            return Err(format!("circuit {c} is empty"));
        };
        if last.to != first.from {
            return Err(format!(
                "circuit {c} is not closed: starts at {} and ends at {}",
                first.from.0, last.to.0
            ));
        }
        for (i, step) in circuit.iter().enumerate() {
            if let Some(next) = circuit.get(i + 1) {
                if step.to != next.from {
                    return Err(format!(
                        "circuit {c} breaks after step {i}: {} then {}",
                        step.to.0, next.from.0
                    ));
                }
            }
            let e = step.edge.0 as usize;
            let Some(slot) = seen.get_mut(e) else {
                return Err(format!("circuit {c} step {i}: edge {e} is not in the graph"));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("circuit {c} step {i}: edge {e} is used twice"));
            }
            let (u, v) = (endpoints[2 * e], endpoints[2 * e + 1]);
            let (a, b) = (step.from.0, step.to.0);
            if (a, b) != (u, v) && (a, b) != (v, u) {
                return Err(format!(
                    "circuit {c} step {i}: edge {e} joins {u} and {v}, not {a} and {b}"
                ));
            }
        }
    }
    // The step total equals the edge count and no edge repeats, so every
    // edge was seen; the explicit scan keeps the check independent of that
    // argument.
    match seen.iter().position(|s| !s) {
        Some(e) => Err(format!("edge {e} is missing")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_graph::{EdgeId, VertexId};

    fn step(edge: u64, from: u64, to: u64) -> CircuitStep {
        CircuitStep {
            edge: EdgeId(edge),
            from: VertexId(from),
            to: VertexId(to),
        }
    }

    /// Two triangles sharing vertex 0: edges 0-1, 1-2, 2-0, 0-3, 3-4, 4-0.
    const ENDPOINTS: [u64; 12] = [0, 1, 1, 2, 2, 0, 0, 3, 3, 4, 4, 0];

    fn valid() -> Vec<CircuitStep> {
        vec![
            step(0, 0, 1),
            step(1, 1, 2),
            step(2, 2, 0),
            step(5, 0, 4),
            step(4, 4, 3),
            step(3, 3, 0),
        ]
    }

    #[test]
    fn accepts_a_valid_circuit_in_either_edge_direction() {
        assert_eq!(check_circuits(&ENDPOINTS, &[valid()]), Ok(()));
        // The same tour as two closed circuits (one per triangle) is valid too.
        let tour = valid();
        let (a, b) = tour.split_at(3);
        assert_eq!(check_circuits(&ENDPOINTS, &[a.to_vec(), b.to_vec()]), Ok(()));
    }

    #[test]
    fn rejects_a_dropped_edge() {
        let mut c = valid();
        c.truncate(3);
        assert!(check_circuits(&ENDPOINTS, &[c])
            .unwrap_err()
            .contains("3 steps for 6 edges"));
    }

    #[test]
    fn rejects_a_repeated_edge() {
        let mut c = valid();
        c[5] = step(2, 3, 0);
        assert!(check_circuits(&ENDPOINTS, &[c]).unwrap_err().contains("used twice"));
    }

    #[test]
    fn rejects_a_broken_chain_and_an_open_circuit() {
        let mut c = valid();
        c.swap(3, 4);
        assert!(check_circuits(&ENDPOINTS, &[c])
            .unwrap_err()
            .contains("breaks after step"));
        let mut open = valid();
        open[5] = step(3, 3, 1);
        assert!(check_circuits(&ENDPOINTS, &[open]).unwrap_err().contains("not closed"));
    }

    #[test]
    fn rejects_wrong_endpoints_and_unknown_edges() {
        let mut c = valid();
        c[1] = step(1, 1, 0);
        c[2] = step(2, 0, 0);
        assert!(check_circuits(&ENDPOINTS, &[c]).unwrap_err().contains("joins 1 and 2"));
        let mut c = valid();
        c[0] = step(9, 0, 1);
        assert!(check_circuits(&ENDPOINTS, &[c])
            .unwrap_err()
            .contains("not in the graph"));
        assert!(check_circuits(&ENDPOINTS, &[valid(), vec![]])
            .unwrap_err()
            .contains("empty"));
    }
}
