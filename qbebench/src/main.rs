//! qbebench — the cqfit QBE-over-TCP benchmark.
//!
//! Starts a durable engine (fsync on, real filesystem) behind the
//! production server on loopback TCP, drives fixed-seed QBE sessions
//! through the public client in a closed loop, checks every reply
//! against a storeless oracle, and prints the end-to-end metrics; with
//! `--trace 1` it also replays the same inputs one layer at a time and
//! prints per-layer metrics and a self-time table.
//!
//! ```text
//! cargo run --release --manifest-path qbebench/Cargo.toml -- \
//!     --workload interactive_fit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod drive;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use layers::{cache, engine};
use stats::{median, p99, quantile, ratio, sorted};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Layer, Span, TableRow, NO_UNIT};
use workload::{Op, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// What one invocation runs.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setups: usize,
    scale: Scale,
    out: PathBuf,
}

const USAGE: &str = "usage: qbebench --workload <interactive_fit|pipelined_ingest|hot_questions> \
--seed <n> [--claim-seed <n>] --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let number = |flag: &str| -> Result<Option<u64>, String> {
        flags
            .get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} takes a number, not `{v}`"))
            })
            .transpose()
    };
    for flag in flags.keys() {
        if ![
            "--workload",
            "--seed",
            "--claim-seed",
            "--seconds",
            "--trace",
        ]
        .contains(flag)
        {
            return Err(format!("unknown flag {flag}"));
        }
    }
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    // A claim seed replaces the workload seed, so a result can be
    // re-checked on inputs nobody tuned against.
    let seed = match number("--claim-seed")? {
        Some(claim) => claim,
        None => number("--seed")?.ok_or("--seed is required")?,
    };
    let seconds = number("--seconds")?.ok_or("--seconds is required")?;
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        setups: SETUPS,
        scale: Scale::for_seconds(seconds),
        out: PathBuf::from(target).join("qbebench"),
    })
}

/// Everything one invocation measured.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// The per-layer table and the number of requests behind it.
    table: Option<(Vec<TableRow>, usize)>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    report: Vec<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("qbebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("qbebench: {e}");
        std::process::exit(1);
    }
    let outcome = match execute(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("qbebench: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    if let Some((table, units)) = &outcome.table {
        for line in table_lines(table, *units) {
            println!("{line}");
        }
    }
    let list: &[(&str, &str, &str)] = if opts.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let correct = outcome.failed == 0;
    match report::result_line(correct, outcome.attempted, outcome.failed, list, |name| {
        outcome.metrics.get(name).copied()
    }) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("qbebench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        eprintln!(
            "qbebench: {} of {} checks failed; first: {}",
            outcome.failed,
            outcome.attempted,
            outcome.first_failure.as_deref().unwrap_or("?")
        );
        std::process::exit(1);
    }
}

/// Pins the process to the first CPU it may run on.  Called before any
/// thread starts, so the server's and the client's threads inherit it.
/// Client and server hand every request back and forth; a wake-up on
/// another CPU of a small virtual machine costs more, and varies more,
/// than a hot request's own work.
fn pin_to_one_cpu() -> Result<(), String> {
    // glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls read or write exactly `size` bytes of a live
    // `CpuSet`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or("no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn execute(opts: &Options) -> Result<Outcome, String> {
    let plan = workload::plan(opts.workload, opts.seed, opts.scale);
    let name = opts.workload.name();
    let run_dir = opts.out.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = measure(opts, &plan, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn measure(
    opts: &Options,
    plan: &workload::Plan,
    run_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..opts.setups {
        let dir = run_dir.join(format!("setup-{rep}"));
        let began = Instant::now();
        let stack = drive::setup(plan, &dir)?;
        setup_s.push(began.elapsed().as_secs_f64());
        if rep + 1 < opts.setups {
            drop(drive::teardown(stack)?);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((stack, dir));
        }
    }
    let (mut stack, data_dir) = kept.expect("at least one set-up");
    let cache0 = cache::stats(&stack.engine);
    let computed0 = engine::computed_answers(&stack.engine);
    let tcp = drive::run(plan, &mut stack.clients, opts.seconds);
    let cache1 = cache::stats(&stack.engine);
    let computed = engine::computed_answers(&stack.engine) - computed0;
    let peak_rss = peak_rss_mb();
    drop(drive::teardown(stack)?);
    let completed: Vec<usize> = tcp.conns.iter().map(|c| c.bursts.len()).collect();

    let oracle = check::oracle(plan, &completed)?;
    let views: Vec<Vec<&[drive::Answer]>> = tcp
        .conns
        .iter()
        .map(|c| c.bursts.iter().map(|b| b.answers.as_slice()).collect())
        .collect();
    let mut verdict = check::check_stream(plan, &oracle, &views);
    if w == Workload::PipelinedIngest {
        verdict.merge(check::recheck_durability(
            plan, &oracle, &data_dir, &completed,
        )?);
    }

    // End-to-end figures: a pipelined request's latency is its burst's.
    // Each figure pools the whole run: the host's speed swings at the
    // scale of seconds, and a run-wide figure averages over its states
    // where a median of per-window figures jumps between them.
    let mut by_op: BTreeMap<Op, Vec<u64>> = BTreeMap::new();
    let (mut requests, mut mutations, mut questions) = (0u64, 0u64, 0u64);
    let mut unit_ns = Vec::new();
    for (c, conn) in tcp.conns.iter().enumerate() {
        for (b, burst) in conn.bursts.iter().enumerate() {
            unit_ns.push(burst.latency_ns);
            for step in &plan.conns[c][b].steps {
                requests += 1;
                if step.is_mutation() {
                    mutations += 1;
                } else {
                    questions += 1;
                }
                by_op.entry(step.op()).or_default().push(burst.latency_ns);
            }
        }
    }
    let sessions = sorted(tcp.conns.iter().flat_map(|c| c.sessions.iter().copied()));
    let wall = tcp.wall.as_secs_f64();
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.insert(name, v);
        }
    };
    put("throughput_rps", Some(requests as f64 / wall));
    let fits = by_op.get(&Op::Fit).map(|v| sorted(v.iter().copied()));
    put("fit_p50_us", fits.and_then(|v| quantile(&v, 0.5)).map(us));
    put("setup_s", Some(median(&setup_s)));
    put("peak_rss_mb", peak_rss);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines = vec![
        format!("workload: {}", w.name()),
        format!("seed: {}", plan.seed),
        format!(
            "shape: closed loop, {} connection(s) at depth {}, {} client thread(s), nproc {nproc}, pinned to one CPU",
            w.connections(),
            w.depth(),
            w.connections()
        ),
        "store: durable engine, fsync on every acknowledged mutation, real filesystem".into(),
        format!(
            "inputs: {}",
            plan.properties
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "run: {requests} requests in {} bursts over {wall:.3} s; setup_s over {} set-ups: {}",
            unit_ns.len(),
            setup_s.len(),
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    for op in Op::ALL {
        let Some(samples) = by_op.get(&op) else {
            continue;
        };
        let v = sorted(samples.iter().copied());
        let p99 = p99(&v).map_or(
            format!("n/a (fewer than {} samples)", stats::P99_MIN_SAMPLES),
            |x| format!("{:.1} us", us(x)),
        );
        let p50 = quantile(&v, 0.5).map(us);
        let p90 = quantile(&v, 0.9).map(us);
        lines.push(format!(
            "op {:<7} samples {:>7}  p50 {:>10.1} us  p90 {:>10.1} us  p99 {p99}",
            op.name(),
            v.len(),
            p50.unwrap_or(0.0),
            p90.unwrap_or(0.0)
        ));
    }
    lines.push(format!(
        "sessions: {} completed, p50 {:.3} ms, p90 {:.3} ms",
        sessions.len(),
        ms(quantile(&sessions, 0.5).unwrap_or(0)),
        ms(quantile(&sessions, 0.9).unwrap_or(0))
    ));

    let retries: u64 = tcp.conns.iter().map(|c| c.retries).sum();
    let reconnects: u64 = tcp.conns.iter().map(|c| c.reconnects).sum();
    let hom_hits = cache1.hom_hits - cache0.hom_hits;
    let hom_misses = cache1.hom_misses - cache0.hom_misses;
    let core_hits = cache1.core_hits - cache0.core_hits;
    let core_misses = cache1.core_misses - cache0.core_misses;
    let mutation_share = ratio(mutations as f64, requests as f64);
    let memo_served_share = if questions == 0 {
        0.0
    } else {
        1.0 - ratio(computed as f64, questions as f64).min(1.0)
    };
    lines.push(format!(
        "workload shares: mutation {mutation_share:.4}, memo-served questions {memo_served_share:.4}; \
         cache hom {hom_hits} hits / {hom_misses} misses, core {core_hits} hits / {core_misses} misses; \
         client retries {retries}, reconnects {reconnects}"
    ));

    let mut traced_table = None;
    if opts.trace {
        let origin = Instant::now();
        let r1 = trace::replay_engine(
            plan,
            &oracle,
            &completed,
            &run_dir.join("replay-engine"),
            origin,
        )?;
        let mut r2 = trace::replay_fit(plan, &oracle, &completed, origin);
        let r3 = trace::replay_store(plan, &completed, &run_dir.join("replay-store"), origin)?;
        verdict.merge(r1.verdict);
        verdict.merge(std::mem::take(&mut r2.verdict));
        let spans: Vec<Span> = r1
            .spans
            .iter()
            .chain(&r2.spans)
            .chain(&r3.spans)
            .copied()
            .collect();
        let rows = trace::unit_layer_ns(&unit_ns, &spans);
        let table = trace::table(&rows);
        let busy = |layer: Layer| {
            spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.ns())
                .sum::<u64>() as f64
                / 1e9
        };
        let mut server_self: Vec<i64> = rows
            .iter()
            .map(|r| r[Layer::Server as usize] as i64 - r[Layer::Engine as usize] as i64)
            .collect();
        server_self.sort_unstable();
        let signed =
            |q: f64| stats::rank(server_self.len(), q).map(|i| server_self[i] as f64 / 1e3);
        put("server.self_p50_us", signed(0.5));
        put(
            "server.self_p99_us",
            (server_self.len() >= stats::P99_MIN_SAMPLES)
                .then(|| signed(0.99))
                .flatten(),
        );
        put("server.share_p50", Some(table[0].p50_share));
        put("client.retries", Some(retries as f64));
        put("client.reconnects", Some(reconnects as f64));
        let handle = sorted(rows.iter().map(|r| r[Layer::Engine as usize]));
        put("engine.handle_p50_us", quantile(&handle, 0.5).map(us));
        put("engine.handle_p99_us", p99(&handle).map(us));
        put("engine.question_busy_s", Some(r1.question_s));
        put("engine.mutation_busy_s", Some(r1.mutation_s));
        put("fit.busy_s", Some(busy(Layer::Fit)));
        put("fit.product_extend_busy_s", Some(r2.extend_ns as f64 / 1e9));
        put("product.busy_s", Some(busy(Layer::Product)));
        let values = sorted(r2.product_values.iter().map(|(_, v)| *v));
        put(
            "product.values_p50",
            quantile(&values, 0.5).map(|v| v as f64).or(Some(0.0)),
        );
        put(
            "product.values_max",
            Some(values.last().copied().unwrap_or(0) as f64),
        );
        put("product.facts_max", Some(r2.product_facts_max as f64));
        put("core.busy_s", Some(busy(Layer::Core)));
        put("core.calls", Some(r2.core_calls as f64));
        put("core.values_before_sum", Some(r2.core_values_before as f64));
        put("core.values_after_sum", Some(r2.core_values_after as f64));
        put("hom.busy_s", Some(busy(Layer::Hom)));
        put("hom.checks", Some(r2.hom_checks as f64));
        put("hom.nodes", Some(r2.hom_nodes as f64));
        put("hom.backtracks", Some(r2.hom_backtracks as f64));
        put(
            "cache.hom_hit_ratio",
            Some(ratio(hom_hits as f64, (hom_hits + hom_misses) as f64)),
        );
        put(
            "cache.core_hit_ratio",
            Some(ratio(core_hits as f64, (core_hits + core_misses) as f64)),
        );
        put("cache.hom_misses", Some(hom_misses as f64));
        put("cache.core_misses", Some(core_misses as f64));
        let appends = sorted(r3.appends_ns.iter().copied());
        put("store.append_p50_us", quantile(&appends, 0.5).map(us));
        put("store.append_p99_us", p99(&appends).map(us));
        put("store.busy_s", Some(busy(Layer::Store)));
        put("store.fsyncs", Some(r3.fsyncs as f64));
        put(
            "store.appends_per_fsync",
            Some(ratio(appends.len() as f64, r3.fsyncs as f64)),
        );
        put(
            "store.bytes_per_record",
            Some(ratio(r3.bytes as f64, appends.len() as f64)),
        );
        put("workload.mutation_share", Some(mutation_share));
        put("workload.memo_served_share", Some(memo_served_share));
        let stream_values = sorted(
            r2.product_values
                .iter()
                .filter(|(unit, _)| *unit != NO_UNIT)
                .map(|(_, v)| *v),
        );
        put(
            "workload.product_values_p50",
            Some(quantile(&stream_values, 0.5).unwrap_or(0) as f64),
        );
        put("workload.sample_count", Some(requests as f64));
        traced_table = Some((table, rows.len()));
        lines.push(format!(
            "replays: engine {} spans, fit {} spans ({} questions computed, {} memo-served), store {} spans ({} appends, {} fsyncs)",
            r1.spans.len(),
            r2.spans.len(),
            r2.computed,
            r2.memo_served,
            r3.spans.len(),
            appends.len(),
            r3.fsyncs
        ));
        let path = opts
            .out
            .join(format!("spans-{}-{}.jsonl", w.name(), plan.seed));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!("spans written to {}", path.display()));
    }
    let attempted = requests.max(1);
    metrics.insert(
        "workload.error_rate",
        ratio(verdict.failed as f64, attempted as f64),
    );
    lines.push(format!(
        "correctness: {} checks, {} failed, error_rate {:.6}, sample_count {requests}",
        verdict.checked,
        verdict.failed,
        ratio(verdict.failed as f64, attempted as f64)
    ));
    Ok(Outcome {
        metrics,
        table: traced_table,
        attempted,
        failed: verdict.failed,
        first_failure: verdict.first,
        report: lines,
    })
}

fn table_lines(table: &[TableRow], units: usize) -> Vec<String> {
    let mut lines = vec![
        format!("per-layer self time over {units} requests (p50 = ranks 45-55%, p99 = top 2%):"),
        format!(
            "  {:<9} {:>12} {:>9} {:>12} {:>9}",
            "layer", "p50 us", "p50 share", "p99 us", "p99 share"
        ),
    ];
    for row in table {
        lines.push(format!(
            "  {:<9} {:>12.1} {:>9.3} {:>12.1} {:>9.3}",
            row.name, row.p50_us, row.p50_share, row.p99_us, row.p99_share
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short mode of `workload`: one set-up, one second, small plans,
    /// traced.
    fn short(workload: Workload) -> Outcome {
        let opts = Options {
            workload,
            seed: 7,
            seconds: 1,
            trace: true,
            setups: 1,
            scale: Scale {
                interactive_sessions: 150,
                ingest_sessions: 12,
                hot_bursts: 1500,
            },
            out: PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../.bench_build/qbebench-test"
            )),
        };
        execute(&opts).unwrap()
    }

    fn check_short(workload: Workload) {
        let outcome = short(workload);
        assert_eq!(outcome.failed, 0, "{:?}", outcome.first_failure);
        assert!(outcome.attempted > 0);
        for (name, _, _) in report::END_TO_END {
            assert!(outcome.metrics.contains_key(name), "{name} missing");
        }
        // Every per-layer metric is measured, except p99s, which a
        // one-second run has too few samples for.
        for (name, _, _) in report::PER_LAYER {
            assert!(
                outcome.metrics.contains_key(name) || name.ends_with("_p99_us"),
                "{name} missing"
            );
        }
        // Layer self times plus the residual account for exactly the
        // measured request latency, in both bands.
        let (table, _) = outcome.table.expect("traced run");
        let p50: f64 = table.iter().map(|r| r.p50_share).sum();
        let p99: f64 = table.iter().map(|r| r.p99_share).sum();
        assert!((p50 - 1.0).abs() < 1e-9, "p50 shares sum to {p50}");
        assert!((p99 - 1.0).abs() < 1e-9, "p99 shares sum to {p99}");
    }

    #[test]
    fn short_interactive_fit() {
        check_short(Workload::InteractiveFit);
    }

    #[test]
    fn short_pipelined_ingest() {
        check_short(Workload::PipelinedIngest);
    }

    #[test]
    fn short_hot_questions() {
        check_short(Workload::HotQuestions);
    }

    #[test]
    fn arguments_parse_and_claim_seed_wins() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts = parse_args(&args(
            "--workload hot_questions --seed 3 --seconds 2 --trace 1 --claim-seed 99",
        ))
        .unwrap();
        assert_eq!(
            (opts.workload, opts.seed, opts.seconds, opts.trace),
            (Workload::HotQuestions, 99, 2, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload hot_questions --seconds 1")).is_err());
        assert!(parse_args(&args(
            "--workload hot_questions --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
