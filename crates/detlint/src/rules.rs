//! The rule registry and the per-file lint driver.

use crate::report::{Allow, Finding, LintResult};
use crate::scanner::{Line, SourceFile};

/// A registered lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Short stable id (`R1`…`R7`, `S1`/`S2`).
    pub id: &'static str,
    /// Kebab-case name usable in suppressions.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the README.
    pub desc: &'static str,
}

/// The registry, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R1",
        name: "hash-iteration",
        desc: "HashMap/HashSet in non-test code: iteration order is per-process random; use BTreeMap/BTreeSet or sorted-key iteration",
    },
    Rule {
        id: "R2",
        name: "float-ordering",
        desc: "sort_by/max_by/min_by via partial_cmp, or bare f64::max/f64::min combinators, in non-test code: use total_cmp-based forms (consensus_algorithms::float)",
    },
    Rule {
        id: "R3",
        name: "wall-clock",
        desc: "Instant::now/SystemTime reads outside crates/bench, perfbench and test code: results must not depend on wall time",
    },
    Rule {
        id: "R4",
        name: "unseeded-rng",
        desc: "thread_rng/from_entropy/OsRng/rand::random anywhere (tests included): every RNG must be explicitly seeded",
    },
    Rule {
        id: "R5",
        name: "crate-header",
        desc: "crate root (src/lib.rs, src/main.rs, or a src/bin/ target) missing the #![forbid(unsafe_code)] header of the workspace deny set",
    },
    Rule {
        id: "R6",
        name: "narrowing-cast",
        desc: "narrowing `as u8/u16/u32` on digraph/dynamics hot paths: use u32::try_from with an explicit failure mode",
    },
    Rule {
        id: "R7",
        name: "bench-clock-scope",
        desc: "Instant/SystemTime in consensus-bench library code: real clocks live only behind the Clock trait (src/wallclock.rs) and in bin/test/bench targets",
    },
    Rule {
        id: "S1",
        name: "suppression-reason",
        desc: "a `detlint: allow(...)` suppression must carry a non-empty reason string",
    },
    Rule {
        id: "S2",
        name: "unused-suppression",
        desc: "a `detlint: allow(...)` that suppresses nothing (stale after a fix, or naming an unknown rule)",
    },
];

/// Looks a rule up by id or name.
#[must_use]
pub fn rule_by_key(key: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == key || r.name == key)
}

/// Path classification for rule scoping.
#[derive(Debug, Clone, Copy)]
struct PathClass {
    /// Under a `tests/` or `benches/` directory, or an example target:
    /// the golden gates never run through this code.
    test_code: bool,
    /// Inside `crates/bench` or `perfbench/` (the measurement harnesses
    /// may read clocks).
    bench_crate: bool,
    /// `consensus-bench` *library* code outside the sanctioned
    /// `src/wallclock.rs` Clock impl and the `src/bin/` targets: clock
    /// reads here leak wall time into code the traced runners share
    /// (R7 scope).
    bench_lib: bool,
    /// Inside the `digraph`/`dynamics` hot-path crates (R6 scope).
    hot_path: bool,
    /// A compilation root — `src/lib.rs`, `src/main.rs`, or a binary
    /// target under `src/bin/` — that must carry the deny header
    /// (inner attributes don't cross target boundaries, so every root
    /// needs its own).
    crate_root: bool,
}

fn classify(path: &str) -> PathClass {
    let segments: Vec<&str> = path.split('/').collect();
    let test_dir = segments
        .iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples");
    PathClass {
        test_code: test_dir,
        bench_crate: path.starts_with("crates/bench/") || path.starts_with("perfbench/"),
        bench_lib: path.starts_with("crates/bench/src/")
            && !path.contains("/src/bin/")
            && !path.ends_with("/wallclock.rs"),
        hot_path: path.starts_with("crates/digraph/src") || path.starts_with("crates/dynamics/src"),
        crate_root: path.ends_with("src/lib.rs")
            || path.ends_with("src/main.rs")
            || path.contains("/src/bin/"),
    }
}

/// Whether `code` contains `pat` delimited by non-identifier chars.
fn contains_ident(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + pat.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + pat.len();
    }
    false
}

/// Whether `code` contains a narrowing `as u8|u16|u32` cast.
fn has_narrowing_cast(code: &str) -> bool {
    ["as u8", "as u16", "as u32"].iter().any(|pat| {
        let mut start = 0;
        while let Some(pos) = code[start..].find(pat) {
            let at = start + pos;
            let before_ok = code[..at].ends_with(' ') || code[..at].ends_with('(');
            let after = code[at + pat.len()..].chars().next();
            let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                return true;
            }
            start = at + pat.len();
        }
        false
    })
}

/// Applies every line-level rule to one stripped line; returns the rule
/// ids that fire.
fn line_rules(line: &Line, class: PathClass) -> Vec<&'static Rule> {
    let code = line.code.as_str();
    let mut hit = Vec::new();
    let in_test = class.test_code || line.in_cfg_test;

    if !in_test && (contains_ident(code, "HashMap") || contains_ident(code, "HashSet")) {
        hit.push(rule_by_key("R1").expect("registered"));
    }
    if !in_test {
        let qualified_minmax = code.contains("f64::max")
            || code.contains("f64::min")
            || code.contains("f32::max")
            || code.contains("f32::min");
        let partial_sort = code.contains("partial_cmp")
            && (contains_ident(code, "sort_by")
                || contains_ident(code, "sort_unstable_by")
                || contains_ident(code, "max_by")
                || contains_ident(code, "min_by"));
        if qualified_minmax || partial_sort {
            hit.push(rule_by_key("R2").expect("registered"));
        }
    }
    if !in_test
        && !class.bench_crate
        && (code.contains("Instant::now")
            || code.contains("SystemTime")
            || code.contains("UNIX_EPOCH"))
    {
        hit.push(rule_by_key("R3").expect("registered"));
    }
    if !in_test
        && class.bench_lib
        && (contains_ident(code, "Instant")
            || contains_ident(code, "SystemTime")
            || contains_ident(code, "UNIX_EPOCH"))
    {
        hit.push(rule_by_key("R7").expect("registered"));
    }
    if contains_ident(code, "thread_rng")
        || contains_ident(code, "from_entropy")
        || contains_ident(code, "OsRng")
        || code.contains("rand::random")
    {
        hit.push(rule_by_key("R4").expect("registered"));
    }
    if !in_test && class.hot_path && has_narrowing_cast(code) {
        hit.push(rule_by_key("R6").expect("registered"));
    }
    hit
}

/// Lints one source file; `path` must be workspace-relative with `/`
/// separators (it drives rule scoping).
#[must_use]
pub fn lint_source(path: &str, content: &str) -> LintResult {
    let file = SourceFile::scan(path, content);
    let class = classify(path);
    let suppressions = file.suppressions();
    let mut findings: Vec<Finding> = Vec::new();
    let mut used = vec![false; suppressions.len()];

    for line in &file.lines {
        for rule in line_rules(line, class) {
            let allow = suppressions.iter().enumerate().find(|(_, s)| {
                s.target_line == line.number
                    && rule_by_key(&s.rule).is_some_and(|r| r.id == rule.id)
            });
            match allow {
                Some((si, s)) => {
                    used[si] = true;
                    if s.reason.is_empty() {
                        findings.push(Finding::new(
                            rule_by_key("S1").expect("registered"),
                            path,
                            s.comment_line,
                            format!("suppression of {} has no reason", rule.id),
                            &line.raw,
                        ));
                    }
                }
                None => {
                    findings.push(Finding::new(
                        rule,
                        path,
                        line.number,
                        rule.desc.to_owned(),
                        &line.raw,
                    ));
                }
            }
        }
    }

    // R5: crate roots must carry the deny header.
    if class.crate_root {
        let has_forbid = file
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            let rule = rule_by_key("R5").expect("registered");
            let suppressed = suppressions
                .iter()
                .enumerate()
                .find(|(_, s)| rule_by_key(&s.rule).is_some_and(|r| r.id == "R5"));
            if let Some((si, _)) = suppressed {
                used[si] = true;
            } else {
                findings.push(Finding::new(
                    rule,
                    path,
                    1,
                    "crate root lacks #![forbid(unsafe_code)]".to_owned(),
                    file.lines.first().map_or("", |l| l.raw.as_str()),
                ));
            }
        }
    }

    // S2: every suppression must still be earning its keep.
    for (si, s) in suppressions.iter().enumerate() {
        if !used[si] {
            findings.push(Finding::new(
                rule_by_key("S2").expect("registered"),
                path,
                s.comment_line,
                format!(
                    "allow({}) suppresses nothing on line {}",
                    s.rule, s.target_line
                ),
                "",
            ));
        }
    }

    let allows = suppressions
        .iter()
        .enumerate()
        .filter(|&(si, _)| used[si])
        .map(|(_, s)| Allow {
            path: path.to_owned(),
            line: s.comment_line,
            rule: rule_by_key(&s.rule).map_or_else(|| s.rule.clone(), |r| r.name.to_owned()),
            reason: s.reason.clone(),
        })
        .collect();

    findings.sort_by(|a, b| (a.line, a.rule_id).cmp(&(b.line, b.rule_id)));
    LintResult { findings, allows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding_ids(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .findings
            .iter()
            .map(|f| f.rule_id)
            .collect()
    }

    #[test]
    fn r1_fires_outside_tests_only() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}";
        assert_eq!(finding_ids("crates/x/src/a.rs", src), vec!["R1"]);
        // Same content under a tests/ dir: clean.
        assert!(finding_ids("crates/x/tests/a.rs", src).is_empty());
    }

    #[test]
    fn r1_respects_word_boundaries_and_strings() {
        assert!(finding_ids("crates/x/src/a.rs", "struct MyHashMapLike;").is_empty());
        assert!(finding_ids("crates/x/src/a.rs", "let s = \"HashMap\";").is_empty());
        assert_eq!(
            finding_ids("crates/x/src/a.rs", "let m: HashMap<u32, u32> = x;"),
            vec!["R1"]
        );
    }

    #[test]
    fn r2_partial_cmp_sorts_and_qualified_minmax() {
        assert_eq!(
            finding_ids(
                "crates/x/src/a.rs",
                "v.sort_by(|a, b| a.partial_cmp(b).unwrap());"
            ),
            vec!["R2"]
        );
        assert_eq!(
            finding_ids(
                "crates/x/src/a.rs",
                "let hi = xs.iter().fold(0.0, f64::max);"
            ),
            vec!["R2"]
        );
        // total_cmp forms and sort_by_key are the sanctioned idioms.
        assert!(finding_ids("crates/x/src/a.rs", "v.sort_by(f64::total_cmp);").is_empty());
        assert!(finding_ids("crates/x/src/a.rs", "v.sort_by_key(|c| c[0]);").is_empty());
        // A PartialOrd impl delegating to Ord is not an ordering hazard.
        assert!(finding_ids(
            "crates/x/src/a.rs",
            "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }"
        )
        .is_empty());
    }

    #[test]
    fn r3_allows_bench_crate_and_tests() {
        let src = "let t = Instant::now();";
        assert_eq!(finding_ids("crates/sweep/src/pool.rs", src), vec!["R3"]);
        assert!(finding_ids("crates/bench/src/lib.rs", src)
            .iter()
            .all(|id| *id != "R3"));
        assert!(finding_ids("crates/sweep/tests/t.rs", src).is_empty());
        // The benchmark harness is exempt from R3 like crates/bench, and
        // not from R7, which scopes consensus-bench library code.
        let root = "#![forbid(unsafe_code)]\nlet t = Instant::now();";
        assert!(finding_ids("perfbench/src/main.rs", root).is_empty());
        assert!(finding_ids("perfbench/src/stats.rs", src).is_empty());
        // Every other rule still applies there.
        assert_eq!(
            finding_ids("perfbench/src/grids.rs", "let m: HashMap<u32, u32> = x;"),
            vec!["R1"]
        );
        assert_eq!(
            finding_ids("perfbench/src/main.rs", "fn main() {}"),
            vec!["R5"]
        );
    }

    #[test]
    fn r7_confines_bench_clocks_to_wallclock_and_bins() {
        let src = "let t = Instant::now();";
        // Library code in crates/bench: R3 is waived but R7 fires.
        assert_eq!(
            finding_ids("crates/bench/src/experiments.rs", src),
            vec!["R7"]
        );
        assert_eq!(
            finding_ids(
                "crates/bench/src/lib.rs",
                "#![forbid(unsafe_code)]\nuse std::time::SystemTime;"
            ),
            vec!["R7"]
        );
        // The Clock impl, bin targets, tests, and benches stay exempt.
        assert!(finding_ids("crates/bench/src/wallclock.rs", src).is_empty());
        assert!(finding_ids(
            "crates/bench/src/bin/sweep.rs",
            "#![forbid(unsafe_code)]\nlet t = Instant::now();"
        )
        .is_empty());
        assert!(finding_ids("crates/bench/tests/cli.rs", src).is_empty());
        assert!(finding_ids("crates/bench/benches/b.rs", src).is_empty());
        // Outside crates/bench the clock rule is R3, not R7.
        assert_eq!(finding_ids("crates/sweep/src/pool.rs", src), vec!["R3"]);
    }

    #[test]
    fn r4_fires_even_in_tests() {
        assert_eq!(
            finding_ids("crates/x/tests/a.rs", "let mut rng = thread_rng();"),
            vec!["R4"]
        );
        assert_eq!(
            finding_ids("crates/x/src/a.rs", "let r = StdRng::from_entropy();"),
            vec!["R4"]
        );
        assert!(finding_ids("crates/x/src/a.rs", "StdRng::seed_from_u64(7)").is_empty());
    }

    #[test]
    fn r5_requires_forbid_header_in_crate_roots() {
        assert_eq!(finding_ids("crates/x/src/lib.rs", "pub mod a;"), vec!["R5"]);
        assert!(
            finding_ids("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\npub mod a;").is_empty()
        );
        // Non-root files don't need the header.
        assert!(finding_ids("crates/x/src/a.rs", "pub mod b;").is_empty());
    }

    #[test]
    fn r5_covers_binary_roots_too() {
        // src/main.rs and every src/bin/ target are their own
        // compilation roots: the lib header doesn't protect them.
        assert_eq!(
            finding_ids("crates/x/src/main.rs", "fn main() {}"),
            vec!["R5"]
        );
        assert_eq!(
            finding_ids("crates/bench/src/bin/sweep.rs", "fn main() {}"),
            vec!["R5"]
        );
        assert!(finding_ids(
            "crates/bench/src/bin/sweep.rs",
            "#![forbid(unsafe_code)]\nfn main() {}"
        )
        .is_empty());
    }

    #[test]
    fn r6_scoped_to_hot_path_crates() {
        let src = "let j = i as u32;";
        assert_eq!(finding_ids("crates/digraph/src/csr.rs", src), vec!["R6"]);
        assert_eq!(
            finding_ids("crates/dynamics/src/sharded.rs", src),
            vec!["R6"]
        );
        assert!(finding_ids("crates/netmodel/src/alpha.rs", src).is_empty());
        // Widening casts stay legal.
        assert!(finding_ids("crates/digraph/src/csr.rs", "let j = i as usize;").is_empty());
        assert!(finding_ids("crates/digraph/src/csr.rs", "let j = i as u64;").is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_and_is_listed() {
        let src = "let m = HashMap::new(); // detlint: allow(hash-iteration, reason = \"membership only\")";
        let res = lint_source("crates/x/src/a.rs", src);
        assert!(res.findings.is_empty());
        assert_eq!(res.allows.len(), 1);
        assert_eq!(res.allows[0].rule, "hash-iteration");
        assert_eq!(res.allows[0].reason, "membership only");
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "let m = HashMap::new(); // detlint: allow(R1)";
        assert_eq!(finding_ids("crates/x/src/a.rs", src), vec!["S1"]);
    }

    #[test]
    fn stale_suppression_is_a_finding() {
        let src = "let m = 1; // detlint: allow(R1, reason = \"was fixed\")";
        assert_eq!(finding_ids("crates/x/src/a.rs", src), vec!["S2"]);
    }

    #[test]
    fn standalone_suppression_guards_next_line() {
        let src =
            "// detlint: allow(R1, reason = \"sorted before iteration\")\nlet m = HashMap::new();";
        let res = lint_source("crates/x/src/a.rs", src);
        assert!(res.findings.is_empty(), "{:?}", res.findings);
        assert_eq!(res.allows.len(), 1);
    }

    #[test]
    fn multiple_rules_on_one_line() {
        let src = "let m: HashMap<u32, u32> = x(thread_rng());";
        assert_eq!(finding_ids("crates/x/src/a.rs", src), vec!["R1", "R4"]);
    }
}
