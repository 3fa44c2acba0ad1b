//! Quality read back from the assignment files `gala detect --output`
//! writes: each file is validated (exactly one `vertex community` line per
//! vertex), then scored with a modularity computed here, independently of
//! the library's, and the library's NMI.

use gala_graph::{Graph, Partition};
use std::collections::HashMap;

/// Parses an assignment file's text for a graph of `n` vertices. It must
/// hold exactly `n` `vertex community` lines naming each vertex once.
pub fn parse_assignment(text: &str, n: usize) -> Result<Partition, String> {
    let mut labels: Vec<Option<u32>> = vec![None; n];
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let bad = || format!("line {}: expected `vertex community`, got {line:?}", i + 1);
        let mut it = line.split_whitespace();
        let v: usize = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let c: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if it.next().is_some() {
            return Err(bad());
        }
        let slot = labels
            .get_mut(v)
            .ok_or_else(|| format!("line {}: vertex {v} out of range 0..{n}", i + 1))?;
        if slot.replace(c).is_some() {
            return Err(format!("line {}: vertex {v} assigned twice", i + 1));
        }
        lines += 1;
    }
    if lines != n {
        return Err(format!("{lines} assignment lines for {n} vertices"));
    }
    Ok(Partition::from_assignment(
        labels
            .into_iter()
            .map(|c| c.expect("every vertex counted"))
            .collect(),
    ))
}

/// Newman modularity (γ = 1) of `p` on `g`:
/// Σ_c [ in_c / 2m − (tot_c / 2m)² ], with `in_c` the arc weight inside
/// community `c` (both directions; self-loops are stored doubled) and
/// `tot_c` its summed weighted degree.
pub fn modularity(g: &Graph, p: &Partition) -> f64 {
    let m2: f64 = g.vertices().map(|v| g.degree_w(v)).sum();
    if m2 == 0.0 {
        return 0.0;
    }
    let mut inside: HashMap<u32, f64> = HashMap::new();
    let mut total: HashMap<u32, f64> = HashMap::new();
    for v in g.vertices() {
        let c = p.community_of(v);
        *total.entry(c).or_default() += g.degree_w(v);
        let w_in: f64 = g
            .neighbors(v)
            .filter(|&(u, _)| p.community_of(u) == c)
            .map(|(_, w)| w)
            .sum();
        *inside.entry(c).or_default() += w_in;
    }
    let mut keys: Vec<u32> = total.keys().copied().collect();
    keys.sort_unstable();
    keys.iter()
        .map(|c| inside.get(c).copied().unwrap_or(0.0) / m2 - (total[c] / m2).powi(2))
        .sum()
}

/// Whether two partitions are equal up to a relabelling of communities.
pub fn same_up_to_labels(a: &Partition, b: &Partition) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd: HashMap<u32, u32> = HashMap::new();
    let mut bwd: HashMap<u32, u32> = HashMap::new();
    a.assignment()
        .iter()
        .zip(b.assignment())
        .all(|(&x, &y)| *fwd.entry(x).or_insert(y) == y && *bwd.entry(y).or_insert(x) == x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_core::metrics::nmi;
    use gala_core::modularity::modularity_with_resolution;
    use gala_graph::generators::fixtures;

    fn write(p: &Partition) -> String {
        (0..p.len())
            .map(|v| format!("{v} {}\n", p.community_of(v as u32)))
            .collect()
    }

    #[test]
    fn q_and_nmi_read_back_from_an_assignment_file() {
        let g = fixtures::two_cliques(5);
        let split = Partition::from_assignment((0..10).map(|v| (v / 5) as u32 * 7).collect());
        let back = parse_assignment(&write(&split), 10).expect("valid file");
        assert_eq!(back.assignment(), split.assignment());
        let q = modularity(&g, &back);
        assert!((q - modularity_with_resolution(&g, &back, 1.0)).abs() < 1e-12);
        assert!(q > 0.4, "two cliques split apart score high: {q}");
        let merged = parse_assignment(&write(&Partition::from_assignment(vec![3; 10])), 10)
            .expect("valid file");
        assert!(modularity(&g, &merged).abs() < 1e-12);
        assert!((nmi(&back, &back) - 1.0).abs() < 1e-12);
        assert!(nmi(&back, &merged).abs() < 1e-12);
    }

    #[test]
    fn malformed_assignment_files_are_rejected() {
        assert!(parse_assignment("0 1\n1 1\n", 3)
            .unwrap_err()
            .contains("2 assignment lines"));
        assert!(parse_assignment("0 1\n0 2\n", 2)
            .unwrap_err()
            .contains("twice"));
        assert!(parse_assignment("0 1\n5 2\n", 2)
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_assignment("0 x\n", 1).unwrap_err().contains("line 1"));
        assert!(parse_assignment("0 1 2\n", 1).is_err());
    }

    #[test]
    fn label_equivalence_ignores_names_but_not_membership() {
        let a = Partition::from_assignment(vec![0, 0, 1, 1]);
        let renamed = Partition::from_assignment(vec![9, 9, 4, 4]);
        let moved = Partition::from_assignment(vec![0, 1, 1, 1]);
        let merged = Partition::from_assignment(vec![0, 0, 0, 0]);
        assert!(same_up_to_labels(&a, &renamed));
        assert!(!same_up_to_labels(&a, &moved));
        assert!(!same_up_to_labels(&a, &merged));
        assert!(!same_up_to_labels(&merged, &a));
    }
}
