//! The unified entry point: one [`Runner`] builder over all four
//! matchers.
//!
//! Pick an [`Algorithm`], chain the knobs you need, call
//! [`Runner::run`] (or [`Runner::try_run`] for the fallible Match3).
//! Every combination funnels into one private pipeline per algorithm,
//! generic over the [`Observer`]. Observing a run never changes the
//! pipeline it runs: phase spans (`enter`/`exit`) fire on the
//! production path for every observer, and only an observer with
//! [`Observer::ENABLED`] set additionally takes the paper-bound audits.
//! Outputs are bit-identical with or without a workspace or observer,
//! at every thread count.
//!
//! ```
//! use parmatch_core::prelude::*;
//! use parmatch_list::random_list;
//!
//! let list = random_list(10_000, 7);
//! let mut ws = Workspace::new();
//! let out = Runner::new(Algorithm::Match4)
//!     .levels(2)
//!     .workspace(&mut ws)
//!     .run(&list);
//! assert!(verify::is_maximal(&list, out.matching()));
//! assert_eq!(out.as_match4().unwrap().walk_rounds % 3, 2); // 3x − 1
//! ```

use crate::match1::Match1Output;
use crate::match2::Match2Output;
use crate::match3::{Match3Config, Match3Error, Match3Output};
use crate::match4::Match4Output;
use crate::matching::Matching;
use crate::obs::{NoopObserver, Observer};
use crate::workspace::Workspace;
use crate::CoinVariant;
use parmatch_list::LinkedList;

/// Which of the paper's four matching algorithms a [`Runner`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Match1: iterate `f` to convergence, then cut-and-walk
    /// (`O(n·G(n)/p + G(n))`, Lemma 3).
    Match1,
    /// Match2: `k` rounds of `f` + the greedy set sweep (optimal to
    /// `p = n/log n`, Lemma 4). Rounds via [`Runner::rounds`].
    Match2,
    /// Match3: crunch + table-driven `f^(m)` lookup (fallible — the
    /// table build can exceed its budget). Tune via [`Runner::config`].
    Match3,
    /// Match4: `i` rounds of `f` + the WalkDown pipeline (the headline
    /// Theorems 1–2). Levels `i` via [`Runner::levels`].
    Match4,
}

impl Algorithm {
    /// All four algorithms, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Match1,
        Algorithm::Match2,
        Algorithm::Match3,
        Algorithm::Match4,
    ];

    /// Stable lowercase name (`"match1"` … `"match4"`), as used by the
    /// CLI and the service job files.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Match1 => "match1",
            Algorithm::Match2 => "match2",
            Algorithm::Match3 => "match3",
            Algorithm::Match4 => "match4",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "match1" => Ok(Algorithm::Match1),
            "match2" => Ok(Algorithm::Match2),
            "match3" => Ok(Algorithm::Match3),
            "match4" => Ok(Algorithm::Match4),
            other => Err(format!(
                "unknown algorithm '{other}' (expected match1..match4)"
            )),
        }
    }
}

/// The result of a [`Runner`] run: the algorithm-specific output behind
/// one type, with the matching always reachable via
/// [`MatchOutcome::matching`].
#[derive(Debug, Clone)]
pub enum MatchOutcome {
    /// Output of [`Algorithm::Match1`].
    Match1(Match1Output),
    /// Output of [`Algorithm::Match2`].
    Match2(Match2Output),
    /// Output of [`Algorithm::Match3`].
    Match3(Match3Output),
    /// Output of [`Algorithm::Match4`].
    Match4(Match4Output),
}

impl MatchOutcome {
    /// Which algorithm produced this outcome.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            MatchOutcome::Match1(_) => Algorithm::Match1,
            MatchOutcome::Match2(_) => Algorithm::Match2,
            MatchOutcome::Match3(_) => Algorithm::Match3,
            MatchOutcome::Match4(_) => Algorithm::Match4,
        }
    }

    /// The maximal matching, whatever the algorithm.
    pub fn matching(&self) -> &Matching {
        match self {
            MatchOutcome::Match1(o) => &o.matching,
            MatchOutcome::Match2(o) => &o.matching,
            MatchOutcome::Match3(o) => &o.matching,
            MatchOutcome::Match4(o) => &o.matching,
        }
    }

    /// Consume the outcome, keeping only the matching.
    pub fn into_matching(self) -> Matching {
        match self {
            MatchOutcome::Match1(o) => o.matching,
            MatchOutcome::Match2(o) => o.matching,
            MatchOutcome::Match3(o) => o.matching,
            MatchOutcome::Match4(o) => o.matching,
        }
    }

    /// The [`Match1Output`] details, if this was a Match1 run.
    pub fn as_match1(&self) -> Option<&Match1Output> {
        match self {
            MatchOutcome::Match1(o) => Some(o),
            _ => None,
        }
    }

    /// The [`Match2Output`] details, if this was a Match2 run.
    pub fn as_match2(&self) -> Option<&Match2Output> {
        match self {
            MatchOutcome::Match2(o) => Some(o),
            _ => None,
        }
    }

    /// The [`Match3Output`] details, if this was a Match3 run.
    pub fn as_match3(&self) -> Option<&Match3Output> {
        match self {
            MatchOutcome::Match3(o) => Some(o),
            _ => None,
        }
    }

    /// The [`Match4Output`] details, if this was a Match4 run.
    pub fn as_match4(&self) -> Option<&Match4Output> {
        match self {
            MatchOutcome::Match4(o) => Some(o),
            _ => None,
        }
    }
}

/// A [`Runner`] run failed. Today only Match3 can fail (its lookup
/// table has a size budget); the other algorithms always succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The Match3 table stage failed.
    Match3(Match3Error),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Match3(e) => write!(f, "match3: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Match3(e) => Some(e),
        }
    }
}

impl From<Match3Error> for RunnerError {
    fn from(e: Match3Error) -> Self {
        RunnerError::Match3(e)
    }
}

/// Builder for one matcher run. See the [module docs](self) for the
/// full example; the short form is
/// `Runner::new(Algorithm::Match1).run(&list)`.
///
/// Knobs not relevant to the chosen algorithm are ignored (e.g.
/// [`rounds`](Runner::rounds) only drives Match2). Without
/// [`workspace`](Runner::workspace) a fresh arena is used — bit-identical
/// to a reused one. Without [`observer`](Runner::observer) the
/// [`NoopObserver`] monomorphisation runs, with every instrumentation
/// site compiled away.
#[derive(Debug)]
pub struct Runner<'w, 'o, O: Observer = NoopObserver> {
    algorithm: Algorithm,
    variant: CoinVariant,
    rounds: u32,
    levels: u32,
    config: Match3Config,
    threads: Option<usize>,
    workspace: Option<&'w mut Workspace>,
    observer: Option<&'o mut O>,
}

impl Runner<'static, 'static, NoopObserver> {
    /// A runner for `algorithm` with the defaults: MSB coin tossing,
    /// 2 rounds (Match2), 2 levels (Match4), [`Match3Config::default`],
    /// the ambient thread pool, a fresh workspace, no observer.
    pub fn new(algorithm: Algorithm) -> Self {
        Runner {
            algorithm,
            variant: CoinVariant::Msb,
            rounds: 2,
            levels: 2,
            config: Match3Config::default(),
            threads: None,
            workspace: None,
            observer: None,
        }
    }
}

impl<'w, 'o, O: Observer> Runner<'w, 'o, O> {
    /// The coin-tossing variant (default [`CoinVariant::Msb`]). For
    /// Match3 this sets [`Match3Config::variant`] too, so set any custom
    /// [`config`](Runner::config) *before* overriding the variant.
    pub fn variant(mut self, variant: CoinVariant) -> Self {
        self.variant = variant;
        self.config.variant = variant;
        self
    }

    /// Relabel rounds for Match2 (default 2; must be ≥ 1).
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Partition levels `i` for Match4 (default 2; must be ≥ 1).
    pub fn levels(mut self, levels: u32) -> Self {
        self.levels = levels;
        self
    }

    /// Full Match3 configuration (crunch rounds, jump rounds, table
    /// budget, variant).
    pub fn config(mut self, config: Match3Config) -> Self {
        self.config = config;
        self
    }

    /// Run inside a private pool of `threads` workers instead of the
    /// ambient one (`0` means the pool's default size). Outputs are
    /// bit-identical at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Reuse `ws` for every buffer — the zero-allocation steady state.
    pub fn workspace(self, ws: &mut Workspace) -> Runner<'_, 'o, O> {
        Runner {
            workspace: Some(ws),
            ..self
        }
    }

    /// Attach an [`Observer`]. Every observer receives the phase spans of
    /// the production pipeline; an enabled one (e.g.
    /// [`Recorder`](crate::obs::Recorder)) also takes the paper-bound
    /// audits. Neither changes the outputs.
    pub fn observer<P: Observer>(self, observer: &mut P) -> Runner<'w, '_, P> {
        Runner {
            algorithm: self.algorithm,
            variant: self.variant,
            rounds: self.rounds,
            levels: self.levels,
            config: self.config,
            threads: self.threads,
            workspace: self.workspace,
            observer: Some(observer),
        }
    }

    /// Execute, panicking on failure (only Match3 can fail — use
    /// [`try_run`](Runner::try_run) when driving it with a tight table
    /// budget).
    ///
    /// # Panics
    ///
    /// Panics if the run returns an error, or on the algorithms' own
    /// contract violations (`rounds == 0` for Match2, `levels == 0` for
    /// Match4).
    pub fn run(self, list: &LinkedList) -> MatchOutcome {
        match self.try_run(list) {
            Ok(out) => out,
            Err(e) => panic!("Runner::run failed: {e}"),
        }
    }

    /// Execute, returning the algorithm's error instead of panicking.
    pub fn try_run(mut self, list: &LinkedList) -> Result<MatchOutcome, RunnerError> {
        match self.threads.take() {
            Some(t) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .expect("thread pool construction cannot fail");
                pool.install(move || self.run_here(list))
            }
            None => self.run_here(list),
        }
    }

    fn run_here(self, list: &LinkedList) -> Result<MatchOutcome, RunnerError> {
        let Runner {
            algorithm,
            variant,
            rounds,
            levels,
            config,
            workspace,
            observer,
            ..
        } = self;
        let mut local_ws;
        let ws = match workspace {
            Some(w) => w,
            None => {
                local_ws = Workspace::new();
                &mut local_ws
            }
        };
        match observer {
            Some(o) => dispatch(algorithm, variant, rounds, levels, config, list, ws, o),
            None => dispatch(
                algorithm,
                variant,
                rounds,
                levels,
                config,
                list,
                ws,
                &mut NoopObserver,
            ),
        }
    }
}

/// The single delegation site: every `Runner` combination funnels into
/// the one pipeline body of its algorithm.
#[allow(clippy::too_many_arguments)]
fn dispatch<O: Observer>(
    algorithm: Algorithm,
    variant: CoinVariant,
    rounds: u32,
    levels: u32,
    config: Match3Config,
    list: &LinkedList,
    ws: &mut Workspace,
    obs: &mut O,
) -> Result<MatchOutcome, RunnerError> {
    Ok(match algorithm {
        Algorithm::Match1 => MatchOutcome::Match1(crate::match1::run(list, variant, ws, obs)),
        Algorithm::Match2 => {
            MatchOutcome::Match2(crate::match2::run(list, rounds, variant, ws, obs))
        }
        Algorithm::Match3 => MatchOutcome::Match3(crate::match3::run(list, config, ws, obs)?),
        Algorithm::Match4 => {
            MatchOutcome::Match4(crate::match4::run(list, levels, variant, ws, obs))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Recorder;
    use crate::verify;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn all_algorithms_maximal_with_shared_workspace() {
        let list = random_list(4096, 3);
        let mut ws = Workspace::new();
        for algo in Algorithm::ALL {
            let out = Runner::new(algo).workspace(&mut ws).run(&list);
            assert_eq!(out.algorithm(), algo);
            verify::assert_maximal_matching(&list, out.matching());
        }
    }

    #[test]
    fn threads_knob_is_bit_identical() {
        let list = random_list(8192, 5);
        let base = Runner::new(Algorithm::Match4).run(&list);
        for t in [1usize, 2, 8] {
            let out = Runner::new(Algorithm::Match4).threads(t).run(&list);
            assert_eq!(out.matching(), base.matching(), "threads={t}");
        }
    }

    #[test]
    fn observer_attaches_without_changing_output() {
        let list = random_list(2048, 7);
        for algo in Algorithm::ALL {
            let plain = Runner::new(algo).run(&list);
            let mut rec = Recorder::new();
            let observed = Runner::new(algo).observer(&mut rec).run(&list);
            assert_eq!(plain.matching(), observed.matching(), "{algo}");
            let rec = rec.finish();
            assert_eq!(rec.spans().len(), 1);
            assert_eq!(rec.spans()[0].label, algo.name());
            assert!(rec.all_bounds_hold(), "{}", rec.render());
        }
    }

    #[test]
    fn try_run_surfaces_match3_errors() {
        let list = random_list(256, 1);
        let bad = Match3Config {
            crunch_rounds: 0,
            ..Match3Config::default()
        };
        let err = Runner::new(Algorithm::Match3)
            .config(bad)
            .try_run(&list)
            .unwrap_err();
        assert!(matches!(err, RunnerError::Match3(_)));
        assert!(err.to_string().contains("match3"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn outcome_accessors() {
        let list = sequential_list(64);
        let out = Runner::new(Algorithm::Match1).run(&list);
        assert!(out.as_match1().is_some());
        assert!(out.as_match2().is_none());
        assert!(out.as_match3().is_none());
        assert!(out.as_match4().is_none());
        let m = out.clone().into_matching();
        assert_eq!(&m, out.matching());
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1, 2] {
            let list = sequential_list(n);
            for algo in Algorithm::ALL {
                let out = Runner::new(algo).run(&list);
                assert_eq!(out.matching().len(), n / 2, "{algo} n={n}");
            }
        }
    }

    #[test]
    fn algorithm_name_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
            assert_eq!(algo.to_string(), algo.name());
        }
        assert!("match5".parse::<Algorithm>().is_err());
    }
}
