//! Every closed-form bound of the paper, as documented functions, plus a
//! machine-readable theorem registry (its keys label the measured rows
//! of the bench harness's `paper` grid).
//!
//! All contraction rates are **per round**; a rate of 0 means exact
//! agreement in finite time is possible.

/// Lower bound of **Theorem 1**: any asymptotic consensus algorithm for
/// `n = 2` in a model containing `{H0, H1, H2}` has contraction rate
/// ≥ 1/3. Tight (Algorithm 1).
#[must_use]
pub fn theorem1_lower() -> f64 {
    1.0 / 3.0
}

/// Lower bound of **Theorem 2**: for `n ≥ 3` and any model containing
/// `deaf(G)`, the contraction rate is ≥ 1/2. Tight in non-split models
/// (midpoint algorithm).
#[must_use]
pub fn theorem2_lower() -> f64 {
    0.5
}

/// Lower bound of **Theorem 3**: for `n ≥ 4` and any model containing
/// the Ψ graphs, the contraction rate is ≥ `(1/2)^{1/(n−2)}`.
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn theorem3_lower(n: usize) -> f64 {
    assert!(n >= 4, "Theorem 3 needs n ≥ 4");
    0.5f64.powf(1.0 / (n as f64 - 2.0))
}

/// Matching upper bound for rooted models: the amortized midpoint
/// algorithm contracts at `(1/2)^{1/(n−1)}` per round (\[9\]).
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn amortized_midpoint_upper(n: usize) -> f64 {
    assert!(n >= 2);
    0.5f64.powf(1.0 / (n as f64 - 1.0))
}

/// Lower bound of **Theorem 5 / Corollary 23**: in a model with
/// α-diameter `D` in which exact consensus is not solvable, the
/// contraction rate is ≥ `1/(D+1)`.
///
/// # Panics
///
/// Panics if `d == 0` (the α-diameter is at least 1 by definition).
#[must_use]
pub fn theorem5_lower(d: usize) -> f64 {
    assert!(d >= 1, "α-diameter is ≥ 1 by definition");
    1.0 / (d as f64 + 1.0)
}

/// Lower bound of **Theorem 6**: any *round-based* algorithm in an
/// asynchronous system with `n > 3` agents and `f < n/2` crashes has
/// contraction rate ≥ `1/(⌈n/f⌉+1)` per round (and per time unit).
///
/// # Panics
///
/// Panics if `f == 0` or `2·f ≥ n`.
#[must_use]
pub fn theorem6_lower(n: usize, f: usize) -> f64 {
    assert!(f >= 1 && 2 * f < n, "need 0 < f < n/2");
    1.0 / (n.div_ceil(f) as f64 + 1.0)
}

/// Upper end of Table 1's round-based interval: Fekete-style averaging
/// achieves `≈ 1/(⌈n/f⌉−1)` per round (\[18\]; realised here by the
/// `RoundRule::Mean` executor whose worst case is `f/(n−f)`).
///
/// # Panics
///
/// Panics if `f == 0` or `2·f ≥ n`.
#[must_use]
pub fn round_based_upper(n: usize, f: usize) -> f64 {
    assert!(f >= 1 && 2 * f < n, "need 0 < f < n/2");
    1.0 / (n.div_ceil(f) as f64 - 1.0)
}

/// **Theorem 7**: MinRelay (not round-based) reaches exact agreement of
/// all correct agents by time `f + 1` — contraction rate 0.
#[must_use]
pub fn theorem7_rate() -> f64 {
    0.0
}

/// **Theorem 7**: the agreement deadline of MinRelay, in time units
/// normalised to the longest end-to-end delay.
#[must_use]
pub fn theorem7_agreement_time(f: usize) -> f64 {
    f as f64 + 1.0
}

/// The non-split cell of **Table 1** (column 1): 1/3 for `n = 2`,
/// 1/2 for `n ≥ 3` — both tight.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn table1_nonsplit_lower(n: usize) -> f64 {
    assert!(n >= 2);
    if n == 2 {
        theorem1_lower()
    } else {
        theorem2_lower()
    }
}

/// The rooted cell of **Table 1** (column 3): the interval
/// `[(1/2)^{1/(n−2)}, (1/2)^{1/(n−1)}]` for `n ≥ 4` (lower bound
/// Theorem 3, upper bound amortized midpoint).
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn table1_rooted_interval(n: usize) -> (f64, f64) {
    (theorem3_lower(n), amortized_midpoint_upper(n))
}

/// The async round-based cell of **Table 1** (column 4): the interval
/// `[1/(⌈n/f⌉+1), 1/(⌈n/f⌉−1)]`.
///
/// # Panics
///
/// Panics if `f == 0` or `2·f ≥ n`.
#[must_use]
pub fn table1_async_interval(n: usize, f: usize) -> (f64, f64) {
    (theorem6_lower(n, f), round_based_upper(n, f))
}

/// A theorem entry of the registry: identifier, row-label key,
/// statement, and the kind of bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoremEntry {
    /// Identifier as in the paper, e.g. `"Theorem 2"`.
    pub id: &'static str,
    /// The short key the reproduction harness starts the labels of the
    /// theorem's measured rows with, e.g. `"thm2"`.
    pub key: &'static str,
    /// One-line statement.
    pub statement: &'static str,
    /// Kind of quantity the bound constrains.
    pub kind: BoundKind,
}

/// What a theorem bound talks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// A per-round contraction-rate lower bound.
    ContractionLower,
    /// A decision-time lower bound for approximate consensus.
    DecisionTimeLower,
    /// An achievability (upper-bound) result.
    Upper,
}

/// The theorem registry: one entry per quantitative claim of the paper,
/// in paper order. The reproduction harness labels its measured rows
/// with the entries' [`TheoremEntry::key`]s (the `paper` grid of
/// `consensus-bench`).
#[must_use]
pub fn theorems() -> &'static [TheoremEntry] {
    use BoundKind::*;
    const THEOREMS: [TheoremEntry; 11] = [
        TheoremEntry { id: "Theorem 1", key: "thm1", statement: "n=2, model ⊇ {H0,H1,H2}: contraction ≥ 1/3 (tight, Algorithm 1)", kind: ContractionLower },
        TheoremEntry { id: "Theorem 2", key: "thm2", statement: "n≥3, model ⊇ deaf(G): contraction ≥ 1/2 (tight in non-split, midpoint)", kind: ContractionLower },
        TheoremEntry { id: "Theorem 3", key: "thm3", statement: "n≥4, model ⊇ Ψ: contraction ≥ (1/2)^{1/(n−2)} (amortized midpoint: (1/2)^{1/(n−1)})", kind: ContractionLower },
        TheoremEntry { id: "Theorem 4", key: "thm4", statement: "exact consensus solvable ⟺ valencies singleton or disconnected", kind: Upper },
        TheoremEntry { id: "Theorem 5", key: "thm5", statement: "exact consensus unsolvable: contraction ≥ 1/(D+1), D = α-diameter", kind: ContractionLower },
        TheoremEntry { id: "Theorem 6", key: "thm6", statement: "async, f < n/2 crashes, round-based: contraction ≥ 1/(⌈n/f⌉+1)", kind: ContractionLower },
        TheoremEntry { id: "Theorem 7", key: "thm7", statement: "MinRelay (not round-based): exact agreement by time f+1, rate 0", kind: Upper },
        TheoremEntry { id: "Theorem 8", key: "thm8", statement: "n=2: decision time ≥ log3(Δ/ε) (tight)", kind: DecisionTimeLower },
        TheoremEntry { id: "Theorem 9", key: "thm9", statement: "n≥3, deaf(G): decision time ≥ log2(Δ/ε) (tight)", kind: DecisionTimeLower },
        TheoremEntry { id: "Theorem 10", key: "thm10", statement: "n≥4, Ψ: decision time ≥ (n−2)·log2(Δ/ε)", kind: DecisionTimeLower },
        TheoremEntry { id: "Theorem 11", key: "thm11", statement: "general: decision time ≥ log_{D+1}(Δ/(εn))", kind: DecisionTimeLower },
    ];
    &THEOREMS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert!((table1_nonsplit_lower(2) - 1.0 / 3.0).abs() < 1e-15);
        assert!((table1_nonsplit_lower(3) - 0.5).abs() < 1e-15);
        let (lo, hi) = table1_rooted_interval(6);
        assert!(lo < hi, "lower bound below upper bound");
        assert!((lo - 0.5f64.powf(0.25)).abs() < 1e-12);
        assert!((hi - 0.5f64.powf(0.2)).abs() < 1e-12);
    }

    #[test]
    fn theorem3_approaches_one() {
        // The bound tends to 1 as n grows (slower contraction possible).
        assert!(theorem3_lower(4) < theorem3_lower(8));
        assert!(theorem3_lower(64) > 0.98);
    }

    #[test]
    fn async_interval_ordering() {
        for (n, f) in [(3, 1), (4, 1), (8, 3), (9, 4)] {
            let (lo, hi) = table1_async_interval(n, f);
            assert!(lo < hi, "n={n}, f={f}");
            assert!(lo >= 1.0 / (n as f64 + 1.0));
        }
    }

    #[test]
    fn theorem5_examples_from_paper() {
        // §7: D = 2 for {H0,H1,H2} → 1/3; D = 1 for deaf(G) → 1/2.
        assert!((theorem5_lower(2) - theorem1_lower()).abs() < 1e-15);
        assert!((theorem5_lower(1) - theorem2_lower()).abs() < 1e-15);
    }

    #[test]
    fn registry_is_complete() {
        let reg = theorems();
        assert_eq!(reg.len(), 11);
        assert!(reg.iter().any(|t| t.id == "Theorem 6"));
    }

    #[test]
    fn consistency_with_netmodel_alpha() {
        use consensus_netmodel::{alpha, NetworkModel};
        let two = NetworkModel::two_agent();
        let d = alpha::alpha_diameter(&two).finite().expect("finite");
        assert!((theorem5_lower(d) - theorem1_lower()).abs() < 1e-15);
        let deaf = NetworkModel::deaf(&consensus_digraph::Digraph::complete(4));
        let d = alpha::alpha_diameter(&deaf).finite().expect("finite");
        assert!((theorem5_lower(d) - theorem2_lower()).abs() < 1e-15);
    }

    #[test]
    fn theorem7_constants() {
        assert_eq!(theorem7_rate(), 0.0);
        assert_eq!(theorem7_agreement_time(3), 4.0);
    }
}
