//! Bound-audit suite: every counter the observability layer records
//! with a paper bound must satisfy it, across a log-spaced size grid
//! and all four matchers — and the audited runs must be bit-identical
//! to unobserved ones. An observer that takes no audits must see the
//! phase spans of exactly the pipeline an unobserved run executes.
//!
//! The paper claims audited here:
//!
//! * Lemma 1: one `f` round partitions pointers into `≤ 2⌈log₂ n⌉`
//!   matching sets (the first-round distinct-label census);
//! * Lemma 2: every later round's census obeys the `2⌈log₂ b⌉` cascade;
//! * Match1 step 2: `G(n) + O(1)` (≤ `log* n + O(1)`) relabel rounds;
//! * Match1 steps 3–4: sublists cut at local minima have `≤ 2·bound − 1`
//!   nodes, and the walks cover each node exactly once;
//! * Lemmas 6–7 / Corollary 1: WalkDown1 takes `x` lockstep rounds and
//!   WalkDown2 `2x − 1` steps;
//! * Theorems 1–2 (work-optimality): total work is `c·n` with a small
//!   constant `c`, asserted per matcher below and recorded as
//!   `work_per_node_x100`.

use parmatch_bits::{g_of, ilog2_ceil, log_star};
use parmatch_core::obs::Span;
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};

/// Log-spaced size grid (powers of 4).
const GRID: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// One `Runner` run of `algo` (defaults, `variant`) on `ws`, recorded.
fn recorded(
    algo: Algorithm,
    variant: CoinVariant,
    list: &LinkedList,
    ws: &mut Workspace,
) -> (MatchOutcome, Recording) {
    let mut r = Recorder::new();
    let out = Runner::new(algo)
        .variant(variant)
        .workspace(ws)
        .observer(&mut r)
        .run(list);
    (out, r.finish())
}

fn assert_all_pass(rec: &Recording, what: &str) {
    for a in rec.audits() {
        assert!(
            a.pass,
            "{what}: {} = {} exceeds bound {}",
            a.path, a.value, a.bound
        );
    }
}

#[test]
fn match1_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 7);
        let (out, rec) = recorded(Algorithm::Match1, CoinVariant::Msb, &list, &mut ws);
        let out = out.as_match1().unwrap();
        assert_all_pass(&rec, "match1");

        // Lemma 1: the first census is audited against exactly 2⌈log₂ n⌉.
        let first = rec
            .audits()
            .into_iter()
            .find(|a| a.path.ends_with("distinct_labels"))
            .expect("census recorded");
        assert!(first.path.contains("round"));
        assert_eq!(first.bound, 2 * u64::from(ilog2_ceil(n)), "n={n}");

        // Match1 step 2: G(n) + O(1) ≤ log* n + O(1) rounds.
        assert!(u64::from(out.rounds) <= u64::from(g_of(n)) + 2, "n={n}");
        assert!(u64::from(out.rounds) <= u64::from(log_star(n)) + 3, "n={n}");

        // Steps 3–4 walk every node exactly once.
        assert_eq!(rec.find("walk_nodes"), Some(n), "n={n}");

        // c·n work with c ≤ 12.
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 12 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match2_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 21);
        let (out, rec) = recorded(Algorithm::Match2, CoinVariant::Msb, &list, &mut ws);
        let out = out.as_match2().unwrap();
        assert_all_pass(&rec, "match2");
        let census = rec
            .audits()
            .into_iter()
            .find(|a| a.path.ends_with("distinct_labels"))
            .expect("census recorded");
        assert_eq!(census.bound, 2 * u64::from(ilog2_ceil(n)));
        assert!(out.partition.distinct_sets() as u64 <= out.partition.bound());
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 8 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match3_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 5);
        let (out, rec) = recorded(Algorithm::Match3, CoinVariant::Msb, &list, &mut ws);
        let out = out.as_match3().unwrap();
        assert_all_pass(&rec, "match3");
        assert!(out.jump_rounds >= 1);
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 12 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match4_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 13);
        let (out, rec) = recorded(Algorithm::Match4, CoinVariant::Msb, &list, &mut ws);
        let out = out.as_match4().unwrap();
        assert_all_pass(&rec, "match4");

        // Lemmas 6–7: the walk rounds audit is present and tight.
        assert_eq!(out.walk_rounds, 3 * out.rows - 1);
        assert!(rec
            .audits()
            .iter()
            .any(|a| a.path.ends_with("walk_rounds") && a.value == a.bound));

        // c·n work with c ≤ 26 (the sort and walkdown terms dominate).
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 26 * n, "n={n}: work {wu}");
    }
}

#[test]
fn audited_runs_are_bit_identical_to_plain() {
    // Enabling a real observer must not change one output bit relative
    // to an unobserved run.
    let mut ws_a = Workspace::new();
    let mut ws_b = Workspace::new();
    for &n in &[97u64, 1024, 6000] {
        let list = random_list(n as usize, n);
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            for algo in Algorithm::ALL {
                let plain = Runner::new(algo)
                    .variant(variant)
                    .workspace(&mut ws_a)
                    .run(&list);
                let (obs, _) = recorded(algo, variant, &list, &mut ws_b);
                assert_eq!(plain.matching(), obs.matching(), "{algo} n={n}");
                if let (Some(p), Some(o)) = (plain.as_match1(), obs.as_match1()) {
                    assert_eq!(p.final_bound, o.final_bound);
                }
                if let (Some(p), Some(o)) = (plain.as_match4(), obs.as_match4()) {
                    assert_eq!(p.distinct_sets, o.distinct_sets);
                    assert_eq!(p.walk_rounds, o.walk_rounds);
                }
            }
        }
    }
}

/// A test-only observer that takes no audits (`ENABLED = false`) and
/// logs the label of every span it is asked to open.
#[derive(Default)]
struct PhaseLog {
    entered: Vec<String>,
}

impl Observer for PhaseLog {
    const ENABLED: bool = false;

    fn enter(&mut self, label: &str) {
        self.entered.push(label.to_owned());
    }

    fn exit(&mut self) {}

    fn counter(&mut self, name: &str, _: u64) {
        panic!("unaudited observer got counter {name}");
    }

    fn bounded(&mut self, name: &str, _: u64, _: u64) {
        panic!("unaudited observer got bounded counter {name}");
    }
}

/// Span labels of `spans` in the order they were entered, skipping the
/// per-round `round` spans only an auditing run records.
fn entered_labels(spans: &[Span], out: &mut Vec<String>) {
    for span in spans.iter().filter(|s| s.label != "round") {
        out.push(span.label.clone());
        entered_labels(&span.children, out);
    }
}

#[test]
fn unaudited_observer_sees_the_production_phases() {
    let mut ws = Workspace::new();
    for n in [2usize, 97, 5000] {
        let list = random_list(n, n as u64);
        for algo in Algorithm::ALL {
            let plain = Runner::new(algo).run(&list);
            let mut log = PhaseLog::default();
            let logged = Runner::new(algo)
                .workspace(&mut ws)
                .observer(&mut log)
                .run(&list);
            assert_eq!(plain.matching(), logged.matching(), "{algo} n={n}");

            let (_, rec) = recorded(algo, CoinVariant::Msb, &list, &mut Workspace::new());
            let mut want = Vec::new();
            entered_labels(rec.spans(), &mut want);
            assert_eq!(log.entered, want, "{algo} n={n}");
            assert_eq!(log.entered.first().map(String::as_str), Some(algo.name()));
        }
    }
}

#[test]
fn recordings_are_deterministic_across_runs() {
    let list = random_list(3000, 42);
    let render = |ws: &mut Workspace| {
        let (_, rec) = recorded(Algorithm::Match4, CoinVariant::Msb, &list, ws);
        rec.render()
    };
    let mut ws = Workspace::new();
    let a = render(&mut ws);
    let b = render(&mut ws);
    assert_eq!(a, b);
    assert!(!a.contains("VIOLATED"), "{a}");
}
