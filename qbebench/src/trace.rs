//! The traced run: the TCP run's inputs replayed one layer at a time
//! through public functions, with the benchmark's own spans recorded in
//! memory, then composed per request into a per-layer self-time table.
//!
//! A *unit* is what the TCP run timed as one request: a request at
//! depth 1, a whole burst at depth 32.  Spans outside any unit (set-up
//! population, the closing check) count towards busy totals only.

use crate::check::{self, Oracle, Verdict, CLOSING};
use crate::drive::{Answer, Resolver};
use crate::layers::{engine, fit, hom, store};
use crate::stats::ratio;
use crate::workload::{Burst, Plan, Question, Step};
use cqfit::incremental::IncrementalFitting;
use cqfit_data::Example;
use cqfit_engine::Request;
use cqfit_hom::HomCache;
use cqfit_store::{LogRecord, Store, WorkspaceSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Marks a span outside every unit.
pub const NO_UNIT: u32 = u32::MAX;
/// Marks a span without parent.
pub const NO_PARENT: u32 = u32::MAX;

/// The layers of the per-request table, outermost first.  `Server` is
/// the TCP request itself; its self time is what the server, protocol
/// and loopback add over the in-process engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// TCP request (client, wire, server).
    Server,
    /// `cqfit-engine` dispatch and workspace.
    Engine,
    /// `cqfit::incremental`.
    Fit,
    /// `cqfit_hom::ops` products.
    Product,
    /// `cqfit_hom::core`.
    Core,
    /// `cqfit_hom` search.
    Hom,
    /// `cqfit-store` logs.
    Store,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 7] = [
        Layer::Server,
        Layer::Engine,
        Layer::Fit,
        Layer::Product,
        Layer::Core,
        Layer::Hom,
        Layer::Store,
    ];

    /// The layer's name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Server => "server",
            Layer::Engine => "engine",
            Layer::Fit => "fit",
            Layer::Product => "product",
            Layer::Core => "core",
            Layer::Hom => "hom",
            Layer::Store => "store",
        }
    }

    /// The layers whose spans a span of this layer encloses.
    pub fn children(self) -> &'static [Layer] {
        match self {
            Layer::Server => &[Layer::Engine],
            Layer::Engine => &[Layer::Fit, Layer::Store],
            Layer::Fit => &[Layer::Product, Layer::Core, Layer::Hom],
            Layer::Product | Layer::Core | Layer::Hom | Layer::Store => &[],
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// Enclosing span of the same replay, or [`NO_PARENT`].
    pub parent: u32,
    /// The unit (request id) it belongs to, or [`NO_UNIT`].
    pub unit: u32,
    /// Its layer.
    pub layer: Layer,
    /// Start, in nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, likewise.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
pub struct Recorder {
    origin: Instant,
    base: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span ids start at `base`.
    pub fn new(origin: Instant, base: u32) -> Recorder {
        Recorder {
            origin,
            base,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, layer: Layer, parent: u32, unit: u32) -> u32 {
        let id = self.base + self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            unit,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[(id - self.base) as usize];
        span.end_ns = now;
        span.ns()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Span-id base of thread `t` (ids stay unique across recorders).
fn base(t: usize) -> u32 {
    (t as u32) << 26
}

/// The unit id of each connection's first burst; burst `b` of
/// connection `c` is unit `offsets[c] + b`.
pub fn unit_offsets(completed: &[usize]) -> Vec<u32> {
    completed
        .iter()
        .scan(0u32, |acc, &n| {
            let at = *acc;
            *acc += n as u32;
            Some(at)
        })
        .collect()
}

/// Round-robin order over the connections' completed bursts: the
/// deterministic stand-in for the TCP run's interleaving.
fn round_robin(completed: &[usize]) -> Vec<(usize, usize)> {
    let longest = completed.iter().copied().max().unwrap_or(0);
    (0..longest)
        .flat_map(|b| {
            completed
                .iter()
                .enumerate()
                .filter(move |(_, &n)| b < n)
                .map(move |(c, _)| (c, b))
        })
        .collect()
}

fn mutation_share(steps: &[Step]) -> f64 {
    ratio(
        steps.iter().filter(|s| s.is_mutation()).count() as f64,
        steps.len() as f64,
    )
}

/// Replay 1: the request stream through the engine's public entry
/// points, at the workload's concurrency and windows, on a fresh durable
/// store.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Spans (layer `Engine`).
    pub spans: Vec<Span>,
    /// Time in question requests, seconds.
    pub question_s: f64,
    /// Time in mutation requests, seconds.
    pub mutation_s: f64,
    /// Answers checked against the oracle.
    pub verdict: Verdict,
}

/// Runs replay 1 in `dir`.
pub fn replay_engine(
    plan: &Plan,
    oracle: &Oracle,
    completed: &[usize],
    dir: &Path,
    origin: Instant,
) -> Result<EngineReplay, String> {
    let (engine, _) = engine::open_durable(dir).map_err(|e| format!("replay store: {e}"))?;
    let offsets = unit_offsets(completed);
    let mut out = EngineReplay::default();
    let mut main = Recorder::new(origin, base(0));
    let busy = |steps: &[Step], ns: u64, out: &mut EngineReplay| {
        let m = mutation_share(steps);
        out.mutation_s += ns as f64 * m / 1e9;
        out.question_s += ns as f64 * (1.0 - m) / 1e9;
    };
    let mut population = Resolver::default();
    let mut ids = 0u64;
    for burst in &plan.population {
        let span = main.open(Layer::Engine, NO_PARENT, NO_UNIT);
        let answers = window(plan, &engine, &mut population, burst, &mut ids);
        let ns = main.close(span);
        busy(&burst.steps, ns, &mut out);
        out.verdict
            .check(answers.iter().all(|a| !a.is_error()), || {
                format!("replay population failed: {answers:?}")
            });
    }
    let per_conn: Vec<(Recorder, Vec<Vec<Answer>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .conns
            .iter()
            .zip(completed)
            .zip(&offsets)
            .enumerate()
            .map(|(c, ((bursts, &n), &offset))| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut rec = Recorder::new(origin, base(c + 1));
                    let mut resolver = Resolver::default();
                    let mut ids = (c as u64 + 1) << 40;
                    let answers = bursts[..n]
                        .iter()
                        .enumerate()
                        .map(|(b, burst)| {
                            let span = rec.open(Layer::Engine, NO_PARENT, offset + b as u32);
                            let answers = window(plan, engine, &mut resolver, burst, &mut ids);
                            rec.close(span);
                            answers
                        })
                        .collect();
                    (rec, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine replay thread panicked"))
            .collect()
    });
    let mut spans = main.into_spans();
    let mut answers = Vec::new();
    for (c, (rec, conn_answers)) in per_conn.into_iter().enumerate() {
        for span in rec.into_spans() {
            let b = (span.unit - offsets[c]) as usize;
            busy(&plan.conns[c][b].steps, span.ns(), &mut out);
            spans.push(span);
        }
        answers.push(conn_answers);
    }
    let views: Vec<Vec<&[Answer]>> = answers
        .iter()
        .map(|conn| conn.iter().map(Vec::as_slice).collect())
        .collect();
    out.verdict.merge(check::check_stream(plan, oracle, &views));
    let mut rec = Recorder::new(origin, base(15));
    let mut closing = Vec::new();
    for ws in check::live_workspaces(plan, completed) {
        let span = rec.open(Layer::Engine, NO_PARENT, NO_UNIT);
        let answers = check::closing_answers(plan, &engine, ws);
        out.question_s += rec.close(span) as f64 / 1e9;
        closing.push((ws, answers));
    }
    spans.extend(rec.into_spans());
    out.verdict
        .merge(check::check_closing(plan, oracle, &closing));
    out.spans = spans;
    Ok(out)
}

/// One window through the engine adapter, each request carrying a fresh
/// idempotency id as on the wire.
fn window(
    plan: &Plan,
    engine: &cqfit_engine::Engine,
    resolver: &mut Resolver,
    burst: &Burst,
    next_id: &mut u64,
) -> Vec<Answer> {
    let requests: Vec<(Request, Option<u64>)> = resolver
        .requests(plan, &burst.steps)
        .into_iter()
        .map(|r| {
            *next_id += 1;
            (r, Some(*next_id))
        })
        .collect();
    let answers: Vec<Answer> = engine::window(engine, &requests)
        .iter()
        .map(Answer::of)
        .collect();
    resolver.absorb(&burst.steps, &answers);
    answers
}

/// Replay 2 counters.
#[derive(Debug, Default)]
pub struct FitReplay {
    /// Spans (layers `Fit`, `Product`, `Core`, `Hom`).
    pub spans: Vec<Span>,
    /// Time in positive adds (product extension), nanoseconds.
    pub extend_ns: u64,
    /// Values of each product a question used, with the question's unit.
    pub product_values: Vec<(u32, u64)>,
    /// Largest product, in facts.
    pub product_facts_max: u64,
    /// Cores computed (cache misses).
    pub core_calls: u64,
    /// Values before and after coring, summed over computed cores.
    pub core_values_before: u64,
    /// See `core_values_before`.
    pub core_values_after: u64,
    /// Pairs searched by the uncached recount of questions whose check
    /// missed the cache.
    pub hom_checks: u64,
    /// Search nodes of those searches.
    pub hom_nodes: u64,
    /// Search backtracks of those searches.
    pub hom_backtracks: u64,
    /// Questions answered from the workspace memo (no fitting call).
    pub memo_served: u64,
    /// Questions computed.
    pub computed: u64,
    /// Answers checked against the oracle.
    pub verdict: Verdict,
}

/// A workspace as replay 2 keeps it: the fitting state and the memo
/// the engine's workspace keeps in front of it.
struct FitWs {
    state: IncrementalFitting,
    memo: HashMap<Question, u64>,
}

/// Runs replay 2: each workspace's example sequence through
/// `IncrementalFitting`, with every question decomposed into its
/// product, core and hom calls over a fresh `HomCache`.
pub fn replay_fit(plan: &Plan, oracle: &Oracle, completed: &[usize], origin: Instant) -> FitReplay {
    let offsets = unit_offsets(completed);
    let cache = hom::fresh_cache();
    let mut rec = Recorder::new(origin, base(0));
    let mut out = FitReplay::default();
    let mut states: HashMap<u32, FitWs> = HashMap::new();
    let mut resolvers: Vec<Resolver> = plan.conns.iter().map(|_| Resolver::default()).collect();
    let mut population = Resolver::default();
    for burst in &plan.population {
        for &step in &burst.steps {
            let mut ctx = FitCtx {
                plan,
                cache: &cache,
                rec: &mut rec,
                out: &mut out,
                unit: NO_UNIT,
            };
            ctx.step(&mut states, &mut population, step);
        }
    }
    for (c, b) in round_robin(completed) {
        let unit = offsets[c] + b as u32;
        for (i, &step) in plan.conns[c][b].steps.iter().enumerate() {
            let mut ctx = FitCtx {
                plan,
                cache: &cache,
                rec: &mut rec,
                out: &mut out,
                unit,
            };
            if let Some(got) = ctx.step(&mut states, &mut resolvers[c], step) {
                let want = check::expected_question(oracle, c, b, i, step);
                out.verdict.check(want.as_ref() == Some(&got), || {
                    format!("fit replay conn {c} burst {b} {step:?}: got {got:?}, want {want:?}")
                });
            }
        }
    }
    let mut closing = Vec::new();
    for ws in check::live_workspaces(plan, completed) {
        let state = &mut states.get_mut(&ws).expect("live workspace").state;
        let answers = CLOSING
            .iter()
            .map(|&q| {
                let mut ctx = FitCtx {
                    plan,
                    cache: &cache,
                    rec: &mut rec,
                    out: &mut out,
                    unit: NO_UNIT,
                };
                ctx.ask(state, q)
            })
            .collect();
        closing.push((ws, answers));
    }
    out.verdict
        .merge(check::check_closing(plan, oracle, &closing));
    out.spans = rec.into_spans();
    out
}

struct FitCtx<'a> {
    plan: &'a Plan,
    cache: &'a HomCache,
    rec: &'a mut Recorder,
    out: &'a mut FitReplay,
    unit: u32,
}

impl FitCtx<'_> {
    /// Applies one step; returns the answer of a computed question.
    fn step(
        &mut self,
        states: &mut HashMap<u32, FitWs>,
        resolver: &mut Resolver,
        step: Step,
    ) -> Option<Answer> {
        let ws = step.ws();
        match step {
            Step::Create { .. } => {
                let state = fit::new_state(self.plan.schema.clone(), 0);
                states.insert(
                    ws,
                    FitWs {
                        state,
                        memo: HashMap::new(),
                    },
                );
                return None;
            }
            Step::Drop { .. } => {
                states.remove(&ws);
                return None;
            }
            _ => {}
        }
        let entry = states.get_mut(&ws).expect("workspace exists");
        match step {
            Step::Add { .. } | Step::AddNeutral { .. } => {
                let positive = matches!(step, Step::Add { positive: true, .. });
                let example = self.plan.example_of(step).expect("add").clone();
                let span = self.rec.open(Layer::Fit, NO_PARENT, self.unit);
                let id = fit::add(&mut entry.state, positive, example);
                let ns = self.rec.close(span);
                if positive {
                    self.out.extend_ns += ns;
                }
                if matches!(step, Step::AddNeutral { .. }) {
                    resolver.note_neutral(ws, id);
                }
                None
            }
            Step::Remove { positive, id, .. } => {
                let span = self.rec.open(Layer::Fit, NO_PARENT, self.unit);
                fit::remove(&mut entry.state, positive, id);
                self.rec.close(span);
                None
            }
            Step::RemoveNeutral { .. } => {
                let id = resolver.take_neutral(ws);
                let span = self.rec.open(Layer::Fit, NO_PARENT, self.unit);
                fit::remove(&mut entry.state, false, id);
                self.rec.close(span);
                None
            }
            Step::Ask { question, .. } => {
                let revision = fit::revision(&entry.state);
                if entry.memo.get(&question) == Some(&revision) {
                    self.out.memo_served += 1;
                    return None;
                }
                entry.memo.insert(question, revision);
                Some(self.ask(&mut entry.state, question))
            }
            Step::Create { .. } | Step::Drop { .. } => unreachable!("handled above"),
        }
    }

    /// Answers a question the way `IncrementalFitting` does, one layer
    /// call at a time.
    fn ask(&mut self, state: &mut IncrementalFitting, question: Question) -> Answer {
        self.out.computed += 1;
        let unit = self.unit;
        let fit_span = self.rec.open(Layer::Fit, NO_PARENT, unit);
        let ucq = matches!(question, Question::ExistsUcq | Question::FitUcqPlain);
        let positives = fit::examples(state, true);
        if ucq && !positives.is_empty() {
            let negatives = fit::examples(state, false);
            let pairs: Vec<(&Example, &Example)> = positives
                .iter()
                .flat_map(|p| negatives.iter().map(move |n| (*p, *n)))
                .collect();
            let (found, misses) = self.any_hom(fit_span, &pairs);
            let answer = match question {
                Question::ExistsUcq => Answer::Exists(!found),
                _ if found => Answer::Fit(None),
                _ => {
                    let owned: Vec<Example> = positives.iter().map(|e| (*e).clone()).collect();
                    Answer::fit(Some(fit::ucq_of(&owned)))
                }
            };
            self.rec.close(fit_span);
            self.search_stats(&pairs, misses);
            return answer;
        }
        if question == Question::FitUcqPlain {
            self.rec.close(fit_span);
            return Answer::Fit(None);
        }
        let negatives: Vec<Example> = fit::examples(state, false).into_iter().cloned().collect();
        let span = self.rec.open(Layer::Product, fit_span, unit);
        let product = fit::product(state);
        self.rec.close(span);
        let (values, facts) = hom::size(product);
        self.out.product_values.push((unit, values as u64));
        self.out.product_facts_max = self.out.product_facts_max.max(facts as u64);
        if !product.is_data_example() {
            self.rec.close(fit_span);
            return match question {
                Question::ExistsCq | Question::ExistsUcq => Answer::Exists(false),
                _ => Answer::Fit(None),
            };
        }
        let core;
        let target: &Example = if question == Question::FitCqMin {
            let span = self.rec.open(Layer::Core, fit_span, unit);
            let (c, computed) = hom::core(self.cache, product);
            self.rec.close(span);
            if computed {
                self.out.core_calls += 1;
                self.out.core_values_before += values as u64;
                self.out.core_values_after += hom::size(&c).0 as u64;
            }
            core = c;
            &core
        } else {
            product
        };
        let pairs: Vec<(&Example, &Example)> = negatives.iter().map(|n| (target, n)).collect();
        let (found, misses) = self.any_hom(fit_span, &pairs);
        let answer = match question {
            Question::ExistsCq | Question::ExistsUcq => Answer::Exists(!found),
            _ if found => Answer::Fit(None),
            _ => Answer::fit(Some(fit::cq_of(target))),
        };
        self.rec.close(fit_span);
        self.search_stats(&pairs, misses);
        answer
    }

    /// The cached batch check the engine makes, as one `hom` span.
    fn any_hom(&mut self, parent: u32, pairs: &[(&Example, &Example)]) -> (bool, u64) {
        let span = self.rec.open(Layer::Hom, parent, self.unit);
        let result = hom::any_hom_exists(self.cache, pairs);
        self.rec.close(span);
        result
    }

    /// When the cache missed, the effort of a sequential uncached check
    /// of the same pairs up to the first hit, measured outside every
    /// span.
    fn search_stats(&mut self, pairs: &[(&Example, &Example)], misses: u64) {
        if misses == 0 {
            return;
        }
        for (src, dst) in pairs {
            let (found, stats) = hom::search(src, dst);
            self.out.hom_checks += 1;
            self.out.hom_nodes += stats.nodes;
            self.out.hom_backtracks += stats.backtracks;
            if found {
                break;
            }
        }
    }
}

/// Replay 3 counters.
#[derive(Debug, Default)]
pub struct StoreReplay {
    /// Spans (layer `Store`).
    pub spans: Vec<Span>,
    /// Latency of each append, nanoseconds.
    pub appends_ns: Vec<u64>,
    /// Group-commit fsyncs.
    pub fsyncs: u64,
    /// Encoded bytes appended.
    pub bytes: u64,
}

/// The logical state of one log, for the snapshot a compaction needs.
#[derive(Default)]
struct Model {
    next_id: u64,
    revision: u64,
    positives: BTreeMap<u64, Example>,
    negatives: BTreeMap<u64, Example>,
}

type Models = Mutex<HashMap<u32, Arc<Mutex<Model>>>>;

/// Runs replay 3: the same log records through `Store::append` on a
/// fresh store in `dir`, one writer per connection.  Each workspace's
/// records are appended under its own lock, as the engine does.
pub fn replay_store(
    plan: &Plan,
    completed: &[usize],
    dir: &Path,
    origin: Instant,
) -> Result<StoreReplay, String> {
    let store = store::open(dir).map_err(|e| format!("replay store: {e}"))?;
    let offsets = unit_offsets(completed);
    let models: Models = Mutex::new(HashMap::new());
    let fsyncs0 = store::fsyncs(&store);
    let mut main = Writer {
        plan,
        store: &store,
        models: &models,
        rec: Recorder::new(origin, base(0)),
        resolver: Resolver::default(),
        appends_ns: Vec::new(),
        bytes: 0,
        next_request: 0,
    };
    for burst in &plan.population {
        for &step in &burst.steps {
            main.step(step, NO_UNIT)?;
        }
    }
    let writers: Vec<Writer> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .conns
            .iter()
            .zip(completed)
            .zip(&offsets)
            .enumerate()
            .map(|(c, ((bursts, &n), &offset))| {
                let (store, models) = (&store, &models);
                scope.spawn(move || -> Result<Writer, String> {
                    let mut w = Writer {
                        plan,
                        store,
                        models,
                        rec: Recorder::new(origin, base(c + 1)),
                        resolver: Resolver::default(),
                        appends_ns: Vec::new(),
                        bytes: 0,
                        next_request: (c as u64 + 1) << 40,
                    };
                    for (b, burst) in bursts[..n].iter().enumerate() {
                        for &step in &burst.steps {
                            w.step(step, offset + b as u32)?;
                        }
                    }
                    Ok(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("store replay thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut out = StoreReplay::default();
    for w in std::iter::once(main).chain(writers) {
        out.appends_ns.extend(&w.appends_ns);
        out.bytes += w.bytes;
        out.spans.extend(w.rec.into_spans());
    }
    out.fsyncs = store::fsyncs(&store) - fsyncs0;
    Ok(out)
}

struct Writer<'a> {
    plan: &'a Plan,
    store: &'a Store,
    models: &'a Models,
    rec: Recorder,
    resolver: Resolver,
    appends_ns: Vec<u64>,
    bytes: u64,
    next_request: u64,
}

impl Writer<'_> {
    fn step(&mut self, step: Step, unit: u32) -> Result<(), String> {
        let ws = step.ws();
        let name = &self.plan.names[ws as usize];
        let fail = |e: cqfit_store::StoreError| format!("replay store {name}: {e}");
        match step {
            Step::Ask { .. } => return Ok(()),
            Step::Create { .. } => {
                let span = self.rec.open(Layer::Store, NO_PARENT, unit);
                store::create(self.store, name, &self.plan.schema).map_err(fail)?;
                self.rec.close(span);
                let model = Arc::new(Mutex::new(Model::default()));
                self.models.lock().expect("models").insert(ws, model);
                return Ok(());
            }
            Step::Drop { .. } => {
                let span = self.rec.open(Layer::Store, NO_PARENT, unit);
                store::drop_log(self.store, name).map_err(fail)?;
                self.rec.close(span);
                self.models.lock().expect("models").remove(&ws);
                return Ok(());
            }
            _ => {}
        }
        let model = Arc::clone(&self.models.lock().expect("models")[&ws]);
        let mut m = model.lock().expect("model");
        self.next_request += 1;
        let request_id = Some(self.next_request);
        let (record, positive, id) = match step {
            Step::Add { .. } | Step::AddNeutral { .. } => {
                let positive = matches!(step, Step::Add { positive: true, .. });
                let example = self.plan.example_of(step).expect("add").clone();
                let id = m.next_id;
                let record = LogRecord::AddExample {
                    id,
                    positive,
                    example,
                    request_id,
                };
                (record, positive, id)
            }
            Step::Remove { positive, id, .. } => (
                LogRecord::RemoveExample {
                    id,
                    positive,
                    request_id,
                },
                positive,
                id,
            ),
            _ => {
                let id = self.resolver.take_neutral(ws);
                (
                    LogRecord::RemoveExample {
                        id,
                        positive: false,
                        request_id,
                    },
                    false,
                    id,
                )
            }
        };
        self.bytes += store::record_bytes(&record) as u64;
        let span = self.rec.open(Layer::Store, NO_PARENT, unit);
        store::append(self.store, name, &record, || snapshot(self.plan, &m)).map_err(fail)?;
        self.appends_ns.push(self.rec.close(span));
        m.revision += 1;
        let side = if positive {
            &mut m.positives
        } else {
            &mut m.negatives
        };
        if let LogRecord::AddExample { example, .. } = record {
            side.insert(id, example);
            m.next_id += 1;
            if matches!(step, Step::AddNeutral { .. }) {
                self.resolver.note_neutral(ws, id);
            }
        } else {
            side.remove(&id);
        }
        Ok(())
    }
}

fn snapshot(plan: &Plan, m: &Model) -> WorkspaceSnapshot {
    let list = |side: &BTreeMap<u64, Example>| side.iter().map(|(i, e)| (*i, e.clone())).collect();
    WorkspaceSnapshot {
        schema: plan.schema.as_ref().clone(),
        arity: 0,
        next_id: m.next_id,
        revision: m.revision,
        positives: list(&m.positives),
        negatives: list(&m.negatives),
    }
}

/// Per-unit span time by layer: the TCP latency as the `Server` span,
/// then the replays' spans summed by unit.
pub fn unit_layer_ns(tcp_ns: &[u64], spans: &[Span]) -> Vec<[u64; 7]> {
    let mut out: Vec<[u64; 7]> = tcp_ns
        .iter()
        .map(|&l| {
            let mut row = [0u64; 7];
            row[Layer::Server as usize] = l;
            row
        })
        .collect();
    for span in spans {
        if span.unit != NO_UNIT && span.layer != Layer::Server {
            out[span.unit as usize][span.layer as usize] += span.ns();
        }
    }
    out
}

/// Self time per layer (span time minus child-layer time, never below
/// zero) plus the residual that makes the row add up to the request's
/// latency.  The residual is negative where replayed children took
/// longer than their parent did.
pub fn self_times(row: &[u64; 7]) -> ([i64; 7], i64) {
    let mut selfs = [0i64; 7];
    for layer in Layer::ALL {
        let own = row[layer as usize] as i64;
        let children: i64 = layer
            .children()
            .iter()
            .map(|c| row[*c as usize] as i64)
            .sum();
        selfs[layer as usize] = (own - children).max(0);
    }
    let residual = row[Layer::Server as usize] as i64 - selfs.iter().sum::<i64>();
    (selfs, residual)
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Layer name, or `residual`.
    pub name: &'static str,
    /// Mean self time in the p50 band, microseconds.
    pub p50_us: f64,
    /// Share of the p50-band latency.
    pub p50_share: f64,
    /// Mean self time in the p99 band, microseconds.
    pub p99_us: f64,
    /// Share of the p99-band latency.
    pub p99_share: f64,
}

/// The per-layer table over two latency bands: units ranked 45–55% (the
/// p50 request) and the top 2% (the p99 request).  Each band's span
/// times are summed by layer before self times are taken, so run-to-run
/// jitter of single requests between the TCP run and the replays
/// averages out instead of piling up in the residual.
pub fn table(rows: &[[u64; 7]]) -> Vec<TableRow> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&u| rows[u][Layer::Server as usize]);
    let n = order.len();
    let band = |lo: f64, hi: f64| -> Vec<usize> {
        let b = ((hi * n as f64).ceil() as usize).min(n);
        let a = ((lo * n as f64) as usize).min(b.saturating_sub(1));
        order[a..b].to_vec()
    };
    let cells: Vec<([i64; 8], f64, f64)> = [band(0.45, 0.55), band(0.98, 1.0)]
        .iter()
        .map(|units| {
            let mut sum = [0u64; 7];
            for &u in units {
                for (s, v) in sum.iter_mut().zip(rows[u]) {
                    *s += v;
                }
            }
            let (selfs, residual) = self_times(&sum);
            let mut out = [0i64; 8];
            out[..7].copy_from_slice(&selfs);
            out[7] = residual;
            (
                out,
                sum[Layer::Server as usize] as f64,
                units.len().max(1) as f64,
            )
        })
        .collect();
    let names = Layer::ALL.map(Layer::name);
    (0..8)
        .map(|i| {
            let cell = |(selfs, latency, count): &([i64; 8], f64, f64)| {
                (
                    selfs[i] as f64 / count / 1e3,
                    ratio(selfs[i] as f64, *latency),
                )
            };
            let (p50_us, p50_share) = cell(&cells[0]);
            let (p99_us, p99_share) = cell(&cells[1]);
            TableRow {
                name: names.get(i).copied().unwrap_or("residual"),
                p50_us,
                p50_share,
                p99_us,
                p99_share,
            }
        })
        .collect()
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: u32, none: u32| {
            if v == none {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.layer.name(),
            s.id,
            opt(s.parent, NO_PARENT),
            opt(s.unit, NO_UNIT),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: [(Layer, u64); 7]) -> [u64; 7] {
        let mut r = [0u64; 7];
        for (l, v) in values {
            r[l as usize] = v;
        }
        r
    }

    #[test]
    fn self_times_and_residual_reconcile_with_latency() {
        let consistent = row([
            (Layer::Server, 1000),
            (Layer::Engine, 800),
            (Layer::Fit, 500),
            (Layer::Product, 100),
            (Layer::Core, 200),
            (Layer::Hom, 50),
            (Layer::Store, 250),
        ]);
        let (selfs, residual) = self_times(&consistent);
        assert_eq!(selfs, [200, 50, 150, 100, 200, 50, 250]);
        assert_eq!(residual, 0);
        // Replayed children longer than their parent: the layer's self
        // time is clamped and the residual carries the difference.
        let overlapping = row([
            (Layer::Server, 1000),
            (Layer::Engine, 700),
            (Layer::Fit, 600),
            (Layer::Product, 0),
            (Layer::Core, 0),
            (Layer::Hom, 0),
            (Layer::Store, 300),
        ]);
        let (selfs, residual) = self_times(&overlapping);
        assert_eq!(selfs[Layer::Engine as usize], 0);
        assert_eq!(selfs.iter().sum::<i64>() + residual, 1000);
        assert_eq!(residual, -200);
    }

    #[test]
    fn table_shares_sum_to_one_per_band() {
        let rows: Vec<[u64; 7]> = (1..=200u64)
            .map(|l| {
                row([
                    (Layer::Server, 100 * l),
                    (Layer::Engine, 60 * l),
                    (Layer::Fit, 30 * l),
                    (Layer::Product, 5 * l),
                    (Layer::Core, 5 * l),
                    (Layer::Hom, 10 * l),
                    (Layer::Store, 20 * l),
                ])
            })
            .collect();
        let t = table(&rows);
        assert_eq!(t.len(), 8);
        let p50: f64 = t.iter().map(|r| r.p50_share).sum();
        let p99: f64 = t.iter().map(|r| r.p99_share).sum();
        assert!((p50 - 1.0).abs() < 1e-9 && (p99 - 1.0).abs() < 1e-9);
        assert!(
            (t[0].p50_share - 0.4).abs() < 1e-9,
            "server share {}",
            t[0].p50_share
        );
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new(Instant::now(), base(1));
        let outer = rec.open(Layer::Fit, NO_PARENT, 3);
        let inner = rec.open(Layer::Hom, outer, 3);
        rec.close(inner);
        rec.close(outer);
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(unit_offsets(&[3, 2, 4]), vec![0, 3, 5]);
        assert_eq!(round_robin(&[2, 1]), vec![(0, 0), (1, 0), (0, 1)]);
    }
}
