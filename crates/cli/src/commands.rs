//! Subcommand implementations.

use crate::args::{ArgError, Args};
use parmatch_core::pram_impl::{
    match1_pram, match2_pram, match3_pram, match4_pram, rank_pram, wyllie_pram,
};
use parmatch_core::{
    verify, Algorithm, CoinVariant, Match3Config, MatchOutcome, Matching, Recorder, Recording,
    Runner, Workspace,
};
use parmatch_list::{
    bit_reversal_list, blocked_list, from_text, random_list, reversed_list, sequential_list,
    strided_list, to_text, validate, LinkedList,
};
use parmatch_pram::ExecMode;

/// Top-level usage text.
pub const USAGE: &str = "\
parmatch — maximal matching of linked lists (Han, SPAA 1989)

USAGE: parmatch <command> [options]

COMMANDS
  gen     --kind random|seq|rev|blocked|strided|bitrev --n N
          [--seed S] [--block B] [--stride K]
          Print a list in the text format.
  match   --algo seq|match1|match2|match3|match4|random
          (--input FILE | --n N [--seed S])
          [--i I] [--rounds K] [--variant msb|lsb] [--verify]
          [--threads T]
          Compute a maximal matching; print a summary. --threads runs
          the matcher on a pool of T workers (outputs are identical at
          every thread count).
  rank    (--input FILE | --n N [--seed S])
          [--algo contraction|cascade|wyllie] [--i I] [--check]
  color   (--input FILE | --n N [--seed S]) [--algo matching|cv]
  mis     (--input FILE | --n N [--seed S])
  steps   --algo match1|match2|match3|match4|wyllie|rank
          --n N [--p P] [--i I] [--rounds K] [--checked]
          Simulated PRAM step counts.
  trace   --algo match1|match2|match3|match4
          (--input FILE | --n N [--seed S])
          [--i I] [--rounds K] [--variant msb|lsb] [--threads T]
          [--json]
          Run an instrumented matcher and print the recorded span
          tree: per-phase counters with the paper's bound margins,
          plus an audit summary. Output contains no timings, so it
          is byte-stable across runs and thread counts. Exits with
          an error if any bound is violated.
  serve   --jobs FILE [--workers W] [--queue Q] [--arenas A]
          [--max-batch B] [--threads-per-job T]
          Replay a job file through the batched match service: one job
          per line, `<algo> --n N [--seed S] [--variant msb|lsb]
          [--rounds K] [--i I] [--threads T] [--deadline-ms D]
          [--observed]`; blank lines and `#` comments are skipped.
          Jobs run concurrently over a bounded pool of reusable
          workspace arenas. Each of the W workers (default 2) drains
          at most ⌈B / W⌉ queued jobs at a time (B defaults to 32),
          and compatible small lists within one such share fuse into
          one batched sweep. Results print in submission order, each
          bit-identical to a solo run of the same spec.
  verify  (--input FILE | --faults [--n N] [--seed S] [--trials T])
          Structural validation of a list file, or the fault-injection
          self-check: seeded faults through every matcher, asserting
          each is detected, caught by the verifier, or benign — and
          that bounded retry recovers every failed run.
";

/// CLI failure: message plus whether usage should be shown.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Print [`USAGE`] after the message.
    pub show_usage: bool,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            show_usage: false,
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            show_usage: true,
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::usage(e.to_string())
    }
}

/// Dispatch a full argument vector (without the program name).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::usage("no command given"));
    };
    let args = Args::parse(argv[1..].to_vec())?;
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "match" => cmd_match(&args),
        "rank" => cmd_rank(&args),
        "color" => cmd_color(&args),
        "mis" => cmd_mis(&args),
        "steps" => cmd_steps(&args),
        "trace" => cmd_trace(&args),
        "serve" => cmd_serve(&args),
        "verify" => cmd_verify(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

fn variant_of(args: &Args) -> Result<CoinVariant, CliError> {
    match args.get("variant").unwrap_or("msb") {
        "msb" => Ok(CoinVariant::Msb),
        "lsb" => Ok(CoinVariant::Lsb),
        other => Err(CliError::new(format!(
            "unknown variant {other:?} (msb|lsb)"
        ))),
    }
}

/// Load `--input FILE`, or generate `--n N [--seed S]` (random layout).
fn list_of(args: &Args) -> Result<LinkedList, CliError> {
    if let Some(path) = args.get("input") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
        return from_text(&text).map_err(|e| CliError::new(format!("{path}: {e}")));
    }
    let n: usize = args.require_as("n")?;
    let seed: u64 = args.get_or("seed", 42)?;
    Ok(random_list(n, seed))
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    let n: usize = args.require_as("n")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let list = match args.get("kind").unwrap_or("random") {
        "random" => random_list(n, seed),
        "seq" => sequential_list(n),
        "rev" => reversed_list(n),
        "blocked" => blocked_list(n, args.get_or("block", 4096)?, seed),
        "strided" => strided_list(n, args.get_or("stride", 1)?),
        "bitrev" => bit_reversal_list(n),
        other => return Err(CliError::new(format!("unknown kind {other:?}"))),
    };
    Ok(to_text(&list))
}

fn summarize(list: &LinkedList, m: &Matching, verified: bool, extra: &str) -> String {
    let mut out = format!(
        "matched {} of {} pointers ({:.1}%){}",
        m.len(),
        list.pointer_count(),
        if list.pointer_count() == 0 {
            0.0
        } else {
            100.0 * m.len() as f64 / list.pointer_count() as f64
        },
        extra,
    );
    if verified {
        out.push_str("\nverified: matching ✓ maximal ✓");
    }
    out.push('\n');
    out
}

fn cmd_match(args: &Args) -> Result<String, CliError> {
    let list = list_of(args)?;
    let variant = variant_of(args)?;
    let threads: usize = args.get_or("threads", 0)?;
    let compute =
        || -> Result<(Matching, String), CliError> { cmd_match_compute(args, &list, variant) };
    let (m, extra) = if threads > 0 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| CliError::new(format!("thread pool: {e:?}")))?;
        pool.install(compute)?
    } else {
        compute()?
    };
    let verified = args.flag("verify");
    if verified {
        if !verify::is_matching(&list, &m) {
            return Err(CliError::new("OUTPUT IS NOT A MATCHING"));
        }
        if !verify::is_maximal(&list, &m) {
            return Err(CliError::new("MATCHING IS NOT MAXIMAL"));
        }
    }
    Ok(summarize(&list, &m, verified, &extra))
}

fn cmd_match_compute(
    args: &Args,
    list: &LinkedList,
    variant: CoinVariant,
) -> Result<(Matching, String), CliError> {
    let out = match args.get("algo").unwrap_or("match4") {
        "seq" => (parmatch_baselines::seq_matching(list), String::new()),
        "random" => {
            let out = parmatch_baselines::randomized_matching(list, args.get_or("seed", 42)?);
            (out.matching, format!(" in {} coin rounds", out.rounds))
        }
        name => {
            let algo: Algorithm = name
                .parse()
                .map_err(|_| CliError::new(format!("unknown algo {name:?}")))?;
            let outcome = runner_for(algo, args, variant)?
                .try_run(list)
                .map_err(|e| CliError::new(e.to_string()))?;
            let extra = format!(" via {}", outcome_extra(&outcome));
            (outcome.into_matching(), extra)
        }
    };
    Ok(out)
}

/// Build the [`Runner`] a subcommand's `--rounds`/`--i` flags describe.
fn runner_for<'w, 'o>(
    algo: Algorithm,
    args: &Args,
    variant: CoinVariant,
) -> Result<Runner<'w, 'o>, CliError> {
    let runner = match algo {
        Algorithm::Match1 => Runner::new(algo),
        Algorithm::Match2 => Runner::new(algo).rounds(args.get_or("rounds", 2)?),
        Algorithm::Match3 => Runner::new(algo).config(Match3Config {
            crunch_rounds: args.get_or("rounds", 3)?,
            variant,
            ..Match3Config::default()
        }),
        Algorithm::Match4 => Runner::new(algo).levels(args.get_or("i", 2)?),
    };
    Ok(runner.variant(variant))
}

/// One-line per-algorithm detail pulled back out of a [`MatchOutcome`].
fn outcome_extra(outcome: &MatchOutcome) -> String {
    match outcome {
        MatchOutcome::Match1(out) => {
            format!("{} f-rounds (bound {})", out.rounds, out.final_bound)
        }
        MatchOutcome::Match2(out) => {
            format!("{} matching sets", out.partition.distinct_sets())
        }
        MatchOutcome::Match3(out) => format!(
            "2^{}-entry table, {} jumps",
            out.table_bits, out.jump_rounds
        ),
        MatchOutcome::Match4(out) => format!(
            "{}×{} grid, {} walk rounds",
            out.rows, out.cols, out.walk_rounds
        ),
    }
}

fn cmd_rank(args: &Args) -> Result<String, CliError> {
    let list = list_of(args)?;
    let i: u32 = args.get_or("i", 2)?;
    let (ranks, extra) = match args.get("algo").unwrap_or("contraction") {
        "contraction" => {
            let out = parmatch_apps::rank_by_contraction(&list, i, CoinVariant::Msb);
            (
                out.ranks,
                format!("{} levels, {} node-visits", out.levels, out.work),
            )
        }
        "cascade" => {
            let out = parmatch_apps::rank_accelerated(&list, i, CoinVariant::Msb);
            (
                out.ranks,
                format!(
                    "{} levels, switch at {}, {} node-visits",
                    out.contract_levels, out.switch_size, out.work
                ),
            )
        }
        "wyllie" => {
            let out = parmatch_baselines::wyllie_ranks(&list);
            (
                out.ranks,
                format!("{} rounds, {} node-visits", out.rounds, out.work),
            )
        }
        other => return Err(CliError::new(format!("unknown algo {other:?}"))),
    };
    let mut out = format!("ranked {} nodes: {extra}", list.len());
    if args.flag("check") {
        if ranks != list.ranks_seq() {
            return Err(CliError::new("RANKS DO NOT MATCH THE SEQUENTIAL WALK"));
        }
        out.push_str("\nchecked against the sequential walk ✓");
    }
    out.push('\n');
    Ok(out)
}

fn cmd_color(args: &Args) -> Result<String, CliError> {
    let list = list_of(args)?;
    let colors = match args.get("algo").unwrap_or("matching") {
        "matching" => {
            parmatch_apps::color3::color3_via_match4(&list, args.get_or("i", 2)?, CoinVariant::Msb)
        }
        "cv" => parmatch_baselines::cv_color3(&list, CoinVariant::Msb).colors,
        other => return Err(CliError::new(format!("unknown algo {other:?}"))),
    };
    if !parmatch_baselines::cv::node_coloring_is_proper(&list, &colors, 3) {
        return Err(CliError::new("COLORING IS NOT PROPER"));
    }
    let mut class = [0usize; 3];
    for &c in &colors {
        class[c as usize] += 1;
    }
    Ok(format!(
        "3-colored {} nodes: classes {} / {} / {} (verified proper)\n",
        list.len(),
        class[0],
        class[1],
        class[2]
    ))
}

fn cmd_mis(args: &Args) -> Result<String, CliError> {
    let list = list_of(args)?;
    let sel = parmatch_apps::mis_via_match4(&list, args.get_or("i", 2)?, CoinVariant::Msb);
    if !parmatch_apps::is_maximal_independent_set(&list, &sel) {
        return Err(CliError::new("SET IS NOT A MAXIMAL INDEPENDENT SET"));
    }
    let k = sel.iter().filter(|&&b| b).count();
    Ok(format!(
        "maximal independent set of {k} / {} nodes ({:.1}%, verified)\n",
        list.len(),
        if list.is_empty() {
            0.0
        } else {
            100.0 * k as f64 / list.len() as f64
        }
    ))
}

fn cmd_steps(args: &Args) -> Result<String, CliError> {
    let n: usize = args.require_as("n")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let list = random_list(n, seed);
    let p: usize = args.get_or("p", 64)?;
    let i: u32 = args.get_or("i", 2)?;
    let mode = if args.flag("checked") {
        ExecMode::Checked
    } else {
        ExecMode::Fast
    };
    let err = |e: parmatch_pram::PramError| CliError::new(e.to_string());
    let (stats, extra) = match args.require("algo")? {
        "match1" => {
            let out = match1_pram(&list, p, CoinVariant::Msb, mode).map_err(err)?;
            (out.stats, format!("{} f-rounds", out.relabel_rounds))
        }
        "match2" => {
            let out = match2_pram(&list, p, args.get_or("rounds", 2)?, CoinVariant::Msb, mode)
                .map_err(err)?;
            (out.stats, format!("{} sort steps", out.sort_steps))
        }
        "match3" => {
            let out = match3_pram(&list, p, Match3Config::default(), mode)
                .map_err(|e| CliError::new(e.to_string()))?;
            (
                out.stats,
                format!("{} broadcast steps", out.broadcast_steps),
            )
        }
        "match4" => {
            let out = match4_pram(&list, i, None, CoinVariant::Msb, mode).map_err(err)?;
            (out.stats, format!("grid {}×{}", out.rows, out.cols))
        }
        "wyllie" => {
            let out = wyllie_pram(&list, p, mode).map_err(err)?;
            (out.stats, format!("{} rounds", out.rounds))
        }
        "rank" => {
            let out = rank_pram(&list, i, mode).map_err(err)?;
            (
                out.stats,
                format!("{} levels, switch at {}", out.levels, out.switch_size),
            )
        }
        other => return Err(CliError::new(format!("unknown algo {other:?}"))),
    };
    Ok(format!(
        "n={n} p={p}: steps={} work={} ({extra})\n",
        stats.steps, stats.work
    ))
}

/// `trace`: run a matcher through [`Runner`] with a [`Recorder`]
/// attached and pretty-print the recorded span tree with bound
/// margins. Any violated bound turns the whole invocation into an
/// error (the tree is still printed, inside the error message).
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let list = list_of(args)?;
    let variant = variant_of(args)?;
    let threads: usize = args.get_or("threads", 0)?;
    let algo_name = args.get("algo").unwrap_or("match4");
    let algo: Algorithm = algo_name
        .parse()
        .map_err(|_| CliError::new(format!("unknown algo {algo_name:?}")))?;
    let run = || -> Result<(Recording, String), CliError> {
        let mut ws = Workspace::new();
        let mut rec = Recorder::new();
        let outcome = runner_for(algo, args, variant)?
            .workspace(&mut ws)
            .observer(&mut rec)
            .try_run(&list)
            .map_err(|e| CliError::new(e.to_string()))?;
        let extra = outcome_extra(&outcome);
        Ok((rec.finish(), extra))
    };
    let (rec, extra) = if threads > 0 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| CliError::new(format!("thread pool: {e:?}")))?;
        pool.install(run)?
    } else {
        run()?
    };
    let audits = rec.audits();
    let held = audits.iter().filter(|a| a.pass).count();
    let mut out = format!("trace {algo}: {} nodes, {extra}\n", list.len());
    if args.flag("json") {
        out.push_str(&rec.to_json());
        out.push('\n');
    } else {
        out.push_str(&rec.render());
    }
    out.push_str(&format!("audit: {held}/{} bounds hold\n", audits.len()));
    if held != audits.len() {
        return Err(CliError::new(out));
    }
    Ok(out)
}

/// Parse one job-file line (`<algo> --n N [options]`) into a
/// [`parmatch_service::JobSpec`].
fn parse_job_line(
    line: &str,
    context: &dyn Fn(String) -> CliError,
) -> Result<parmatch_service::JobSpec, CliError> {
    use parmatch_service::JobSpec;
    let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
    let algo_name = tokens.remove(0);
    let algo: Algorithm = algo_name
        .parse()
        .map_err(|_| context(format!("unknown algorithm {algo_name:?}")))?;
    let job_args = Args::parse(tokens).map_err(|e| context(e.to_string()))?;
    let err = |e: ArgError| context(e.to_string());
    let n: usize = job_args.require_as("n").map_err(err)?;
    let seed: u64 = job_args.get_or("seed", 42).map_err(err)?;
    let variant = variant_of(&job_args).map_err(|e| context(e.message))?;
    let mut spec = JobSpec::new(algo, random_list(n, seed)).variant(variant);
    match algo {
        Algorithm::Match1 => {}
        Algorithm::Match2 => spec = spec.rounds(job_args.get_or("rounds", 2).map_err(err)?),
        Algorithm::Match3 => {
            spec = spec.config(Match3Config {
                crunch_rounds: job_args.get_or("rounds", 3).map_err(err)?,
                variant,
                ..Match3Config::default()
            })
        }
        Algorithm::Match4 => spec = spec.levels(job_args.get_or("i", 2).map_err(err)?),
    }
    let threads: usize = job_args.get_or("threads", 0).map_err(err)?;
    if threads > 0 {
        spec = spec.threads(threads);
    }
    let deadline_ms: u64 = job_args.get_or("deadline-ms", 0).map_err(err)?;
    if deadline_ms > 0 {
        spec = spec.deadline(std::time::Duration::from_millis(deadline_ms));
    }
    if job_args.flag("observed") {
        spec = spec.observed();
    }
    Ok(spec)
}

/// `serve --jobs FILE`: replay a job file through the batched
/// [`parmatch_service::MatchService`] and print one line per job, in
/// submission order.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use parmatch_service::{JobId, JobResult, MatchService, ServiceConfig, SubmitError};
    let path = args.require("jobs")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let svc = MatchService::start(ServiceConfig {
        workers: args.get_or("workers", 2)?,
        queue_depth: args.get_or("queue", 64)?,
        arenas: args.get_or("arenas", 2)?,
        max_batch: args.get_or("max-batch", 32)?,
        threads_per_job: args.get_or("threads-per-job", 0)?,
    });
    let mut meta: Vec<(JobId, String)> = Vec::new();
    let mut results: Vec<JobResult> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let context = |msg: String| CliError::new(format!("{path}:{}: {msg}", lineno + 1));
        let mut spec = parse_job_line(line, &context)?;
        let desc = format!("{} n={}", spec.algorithm, spec.list.len());
        // Bounded-queue backpressure: on Busy, drain one result and
        // retry with the spec the service handed back.
        let id = loop {
            match svc.submit(spec) {
                Ok(id) => break id,
                Err(SubmitError::Busy(returned)) => {
                    spec = returned;
                    if let Some(r) = svc.recv() {
                        results.push(r);
                    }
                }
                Err(SubmitError::Closed(_)) => {
                    return Err(CliError::new("service closed unexpectedly"))
                }
            }
        };
        meta.push((id, desc));
    }
    while results.len() < meta.len() {
        let r = svc
            .recv()
            .ok_or_else(|| CliError::new("service stopped before all jobs completed"))?;
        results.push(r);
    }
    let report = svc.shutdown();
    let index: std::collections::HashMap<JobId, usize> =
        results.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut out = format!("serve: {} jobs from {path}\n", meta.len());
    let (mut batched, mut failed) = (0usize, 0usize);
    for (id, desc) in &meta {
        let r = &results[index[id]];
        match &r.output {
            Ok(o) => {
                let m = o.matching().expect("match jobs carry a matching");
                batched += usize::from(r.batched);
                out.push_str(&format!(
                    "{id} {desc}: matched {} pointers{}\n",
                    m.len(),
                    if r.batched { " [batched]" } else { "" },
                ));
            }
            Err(e) => {
                failed += 1;
                out.push_str(&format!("{id} {desc}: error: {e}\n"));
            }
        }
    }
    out.push_str(&format!(
        "completed {} jobs ({batched} batched, {failed} failed)\n",
        meta.len()
    ));
    let audits = report.recording.audits();
    if !audits.is_empty() {
        let held = audits.iter().filter(|a| a.pass).count();
        out.push_str(&format!("audit: {held}/{} bounds hold\n", audits.len()));
        if held != audits.len() {
            return Err(CliError::new(out));
        }
    }
    Ok(out)
}

fn cmd_verify(args: &Args) -> Result<String, CliError> {
    if args.flag("faults") {
        return cmd_verify_faults(args);
    }
    let path = args.require("input")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let list = from_text(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    validate(&list).map_err(|e| CliError::new(format!("{path}: invalid list: {e}")))?;
    Ok(format!(
        "{path}: valid {}-node list, head {}, {} pointers\n",
        list.len(),
        list.head(),
        list.pointer_count()
    ))
}

/// `verify --faults`: run the fault-injection detection matrix and
/// fail loudly if any trial escapes classification or recovery.
fn cmd_verify_faults(args: &Args) -> Result<String, CliError> {
    use parmatch_testkit::{fault_matrix, MatrixConfig};
    let cfg = MatrixConfig {
        n: args.get_or("n", 96)?,
        seed: args.get_or("seed", 42)?,
        trials: args.get_or("trials", 4)?,
        ..MatrixConfig::default()
    };
    if cfg.n < 2 {
        return Err(CliError::new("--n must be at least 2"));
    }
    let cells = fault_matrix(&cfg);
    let mut out = format!(
        "fault self-check: n={} seed={} trials={} sites={} budget={}\n",
        cfg.n, cfg.seed, cfg.trials, cfg.sites_per_trial, cfg.retry_budget
    );
    for c in &cells {
        out.push_str(&format!(
            "{:>7} {:<15} events={:<3} engine={} verifier={} benign={} recovered={}\n",
            c.matcher,
            c.class.name(),
            c.injected,
            c.detected_by_engine,
            c.caught_by_verifier,
            c.benign,
            c.recovered,
        ));
        if c.unrecovered > 0 {
            return Err(CliError::new(format!(
                "{}/{}: {} trials UNRECOVERED after the retry budget",
                c.matcher,
                c.class.name(),
                c.unrecovered
            )));
        }
        if c.detected_by_engine + c.caught_by_verifier + c.benign != c.fired_trials {
            return Err(CliError::new(format!(
                "{}/{}: SILENT CORRUPTION — a fired trial is neither detected, caught, nor benign",
                c.matcher,
                c.class.name()
            )));
        }
    }
    let injected: u64 = cells.iter().map(|c| c.injected).sum();
    out.push_str(&format!(
        "verified: {injected} injected fault events, all detected, caught, or benign; every failed run recovered ✓\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(line: &str) -> Result<String, CliError> {
        run(&line
            .split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>())
    }

    #[test]
    fn gen_roundtrips_through_verify() {
        let text = cli("gen --kind random --n 50 --seed 3").unwrap();
        let list = from_text(&text).unwrap();
        assert_eq!(list.len(), 50);
        for kind in ["seq", "rev", "blocked", "bitrev"] {
            let t = cli(&format!("gen --kind {kind} --n 64")).unwrap();
            assert!(from_text(&t).is_ok(), "{kind}");
        }
    }

    #[test]
    fn match_all_algorithms_verified() {
        for algo in ["seq", "match1", "match2", "match3", "match4", "random"] {
            let out = cli(&format!("match --algo {algo} --n 500 --seed 1 --verify")).unwrap();
            assert!(out.contains("verified"), "{algo}: {out}");
        }
    }

    #[test]
    fn match_threads_option_is_output_invariant() {
        let reference = cli("match --algo match4 --n 800 --seed 4").unwrap();
        for t in [1usize, 2, 8] {
            let out = cli(&format!(
                "match --algo match4 --n 800 --seed 4 --threads {t}"
            ))
            .unwrap();
            assert_eq!(out, reference, "threads={t}");
        }
        assert!(cli("match --algo match4 --n 100 --threads zero").is_err());
    }

    #[test]
    fn rank_all_algorithms_checked() {
        for algo in ["contraction", "cascade", "wyllie"] {
            let out = cli(&format!("rank --algo {algo} --n 400 --seed 2 --check")).unwrap();
            assert!(out.contains("checked"), "{algo}: {out}");
        }
    }

    #[test]
    fn color_and_mis() {
        let out = cli("color --n 300 --seed 5").unwrap();
        assert!(out.contains("verified proper"));
        let out = cli("color --n 300 --seed 5 --algo cv").unwrap();
        assert!(out.contains("verified proper"));
        let out = cli("mis --n 300 --seed 5").unwrap();
        assert!(out.contains("verified"));
    }

    #[test]
    fn steps_all_algorithms() {
        for algo in ["match1", "match2", "match3", "match4", "wyllie", "rank"] {
            let out = cli(&format!("steps --algo {algo} --n 256 --p 16")).unwrap();
            assert!(out.contains("steps="), "{algo}: {out}");
        }
    }

    #[test]
    fn trace_renders_span_tree_and_audits() {
        for algo in ["match1", "match2", "match3", "match4"] {
            let out = cli(&format!("trace --algo {algo} --n 400 --seed 2")).unwrap();
            assert!(out.contains("bounds hold"), "{algo}: {out}");
            assert!(out.contains("[ok, margin"), "{algo}: {out}");
            assert!(!out.contains("VIOLATED"), "{algo}: {out}");
        }
        // Thread-count independent, byte for byte.
        let a = cli("trace --algo match4 --n 600 --seed 3 --threads 2").unwrap();
        let b = cli("trace --algo match4 --n 600 --seed 3").unwrap();
        assert_eq!(a, b);
        let j = cli("trace --algo match2 --n 100 --json").unwrap();
        assert!(j.contains("\"label\":\"match2\""), "{j}");
        assert!(cli("trace --algo nope --n 10").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(cli("").is_err());
        assert!(cli("bogus").unwrap_err().show_usage);
        assert!(cli("match --algo nope --n 10").is_err());
        assert!(cli("gen --kind random").is_err(), "missing --n");
        assert!(cli("verify --input /no/such/file").is_err());
        assert!(cli("match --n ten").is_err());
    }

    #[test]
    fn help_prints_usage() {
        assert!(cli("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn verify_faults_self_check_passes() {
        let out = cli("verify --faults --n 48 --trials 1 --seed 5").unwrap();
        assert!(out.contains("fault self-check"), "{out}");
        assert!(out.contains("verified:"), "{out}");
        assert!(out.contains("duplicate_write"), "{out}");
        assert!(cli("verify --faults --n 1").is_err(), "n below 2 rejected");
    }

    #[test]
    fn serve_replays_a_job_file() {
        let dir = std::env::temp_dir().join("parmatch-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.txt");
        let mut jobs =
            String::from("# one width class of small jobs, then one of each algorithm\n");
        for i in 0..8 {
            jobs.push_str(&format!("match1 --n {} --seed {i}\n", 33 + 4 * i));
        }
        jobs.push_str("\nmatch2 --n 200 --seed 1 --rounds 2\n");
        jobs.push_str("match3 --n 300 --seed 2 --variant lsb\n");
        jobs.push_str("match4 --n 400 --seed 3 --i 2 --threads 2\n");
        jobs.push_str("match4 --n 256 --seed 4 --observed\n");
        std::fs::write(&path, jobs).unwrap();
        let p = path.to_str().unwrap();
        let out = cli(&format!("serve --jobs {p} --workers 2 --queue 4")).unwrap();
        assert!(out.contains("serve: 12 jobs"), "{out}");
        assert!(out.contains("completed 12 jobs"), "{out}");
        assert!(out.contains("0 failed"), "{out}");
        assert!(out.contains("job#0 match1 n=33: matched"), "{out}");
        assert!(out.contains("match4 n=256: matched"), "{out}");
        // the observed job surfaces the service-level audit summary
        assert!(out.contains("bounds hold"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_bad_job_lines() {
        let dir = std::env::temp_dir().join("parmatch-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-jobs.txt");
        std::fs::write(&path, "match9 --n 10\n").unwrap();
        let p = path.to_str().unwrap();
        let err = cli(&format!("serve --jobs {p}")).unwrap_err();
        assert!(err.message.contains("unknown algorithm"), "{err}");
        std::fs::write(&path, "match1 --seed 3\n").unwrap();
        assert!(cli(&format!("serve --jobs {p}")).is_err(), "missing --n");
        std::fs::remove_file(&path).ok();
        assert!(cli("serve --jobs /no/such/file").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("parmatch-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list.txt");
        let text = cli("gen --kind random --n 80 --seed 9").unwrap();
        std::fs::write(&path, text).unwrap();
        let p = path.to_str().unwrap();
        let out = cli(&format!("verify --input {p}")).unwrap();
        assert!(out.contains("valid 80-node list"));
        let out = cli(&format!("match --algo match4 --input {p} --verify")).unwrap();
        assert!(out.contains("verified"));
        std::fs::remove_file(&path).ok();
    }
}
