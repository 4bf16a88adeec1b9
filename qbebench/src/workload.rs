//! The three workloads and their fixed-seed inputs.
//!
//! A plan is generated whole before anything is timed: per connection, a
//! list of bursts (one request each at depth 1, up to 32 at depth 32),
//! with every example drawn from `cqfit-gen` under the workload seed.
//! Steps name workspaces and examples by index and become wire requests
//! only when sent, so a plan stays small and every replay resolves the
//! same steps the TCP run sent.

use cqfit_data::{Example, Schema};
use cqfit_engine::{ExamplePayload, FitMode, Polarity, QueryClass, Request};
use cqfit_gen::{
    churn_workload, directed_cycle, directed_path, exact_colorability, linear_order,
    prime_cycles_family, resolve_churn, RandomConfig, ResolvedChurnOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Depth-1 QBE sessions on fresh workspaces: the fitting layers work.
    InteractiveFit,
    /// Depth-32 bursts of mutations only: the store works.
    PipelinedIngest,
    /// Depth-32 questions on populated workspaces: wire and dispatch work.
    HotQuestions,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::InteractiveFit,
        Workload::PipelinedIngest,
        Workload::HotQuestions,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveFit => "interactive_fit",
            Workload::PipelinedIngest => "pipelined_ingest",
            Workload::HotQuestions => "hot_questions",
        }
    }

    /// Closed-loop client connections, one thread each.  One: a second
    /// connection on a two-CPU host measures the scheduler more than the
    /// server.
    pub fn connections(self) -> usize {
        1
    }

    /// Requests per burst.
    pub fn depth(self) -> usize {
        match self {
            Workload::InteractiveFit => 1,
            Workload::PipelinedIngest | Workload::HotQuestions => 32,
        }
    }
}

/// A fitting question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Question {
    /// Does a CQ fit?
    ExistsCq,
    /// Does a UCQ fit?
    ExistsUcq,
    /// The most-specific fitting CQ.
    FitCqPlain,
    /// The most-specific fitting CQ, cored.
    FitCqMin,
    /// The most-specific fitting UCQ.
    FitUcqPlain,
}

impl Question {
    /// The wire request asking this question of `workspace`.
    pub fn request(self, workspace: String) -> Request {
        let fit = |class, mode| Request::Fit {
            workspace: workspace.clone(),
            class,
            mode,
        };
        match self {
            Question::ExistsCq => Request::FittingExists {
                workspace,
                class: QueryClass::Cq,
            },
            Question::ExistsUcq => Request::FittingExists {
                workspace,
                class: QueryClass::Ucq,
            },
            Question::FitCqPlain => fit(QueryClass::Cq, FitMode::Plain),
            Question::FitCqMin => fit(QueryClass::Cq, FitMode::Minimized),
            Question::FitUcqPlain => fit(QueryClass::Ucq, FitMode::Plain),
        }
    }

    /// Whether this is a fit (rather than an existence) question.
    pub fn is_fit(self) -> bool {
        matches!(
            self,
            Question::FitCqPlain | Question::FitCqMin | Question::FitUcqPlain
        )
    }
}

/// One request of a plan, with workspaces and examples by index.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Create workspace `ws` (digraph schema, Boolean).
    Create {
        /// Workspace index.
        ws: u32,
    },
    /// Drop workspace `ws`.
    Drop {
        /// Workspace index.
        ws: u32,
    },
    /// Add pool example `example`.
    Add {
        /// Workspace index.
        ws: u32,
        /// `E⁺` or `E⁻`.
        positive: bool,
        /// Index into [`Plan::examples`].
        example: u32,
    },
    /// Remove the example with a known id.
    Remove {
        /// Workspace index.
        ws: u32,
        /// `E⁺` or `E⁻`.
        positive: bool,
        /// The id its add received.
        id: u64,
    },
    /// Add the plan's answer-preserving negative.
    AddNeutral {
        /// Workspace index.
        ws: u32,
    },
    /// Remove a neutral negative this connection added in an earlier
    /// burst (its id comes from that add's reply).
    RemoveNeutral {
        /// Workspace index.
        ws: u32,
    },
    /// Ask a question.
    Ask {
        /// Workspace index.
        ws: u32,
        /// The question.
        question: Question,
    },
}

impl Step {
    /// The workspace the step targets.
    pub fn ws(self) -> u32 {
        match self {
            Step::Create { ws }
            | Step::Drop { ws }
            | Step::Add { ws, .. }
            | Step::Remove { ws, .. }
            | Step::AddNeutral { ws }
            | Step::RemoveNeutral { ws }
            | Step::Ask { ws, .. } => ws,
        }
    }

    /// Whether the step changes workspace state (and the log).
    pub fn is_mutation(self) -> bool {
        !matches!(self, Step::Ask { .. })
    }

    /// The op name used in per-op latency reports.
    pub fn op(self) -> Op {
        match self {
            Step::Create { .. } => Op::Create,
            Step::Drop { .. } => Op::Drop,
            Step::Add { .. } | Step::AddNeutral { .. } => Op::Add,
            Step::Remove { .. } | Step::RemoveNeutral { .. } => Op::Remove,
            Step::Ask { question, .. } if question.is_fit() => Op::Fit,
            Step::Ask { .. } => Op::Exists,
        }
    }
}

/// Request kinds with their own latency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `create`.
    Create,
    /// `add` (either polarity).
    Add,
    /// `remove` (either polarity).
    Remove,
    /// `fit` (any class and mode).
    Fit,
    /// `exists` (any class).
    Exists,
    /// `drop`.
    Drop,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 6] = [
        Op::Create,
        Op::Add,
        Op::Remove,
        Op::Fit,
        Op::Exists,
        Op::Drop,
    ];

    /// The op's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Add => "add",
            Op::Remove => "remove",
            Op::Fit => "fit",
            Op::Exists => "exists",
            Op::Drop => "drop",
        }
    }
}

/// One closed-loop send: its steps and whether it opens or closes a
/// latency session.
#[derive(Debug, Clone)]
pub struct Burst {
    /// The steps, sent as one burst.
    pub steps: Vec<Step>,
    /// A session's clock starts when this burst is sent.
    pub session_start: bool,
    /// A session's clock stops when this burst is answered.
    pub session_end: bool,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The schema of every workspace (digraphs).
    pub schema: Arc<Schema>,
    /// Workspace names by index.
    pub names: Vec<String>,
    /// Example pool.
    pub examples: Vec<Example>,
    /// The answer-preserving negative of `AddNeutral`.
    pub neutral: Example,
    /// Steps run once per set-up before measuring (populations), through
    /// the first connection.
    pub population: Vec<Burst>,
    /// Per-connection warm-up bursts run during set-up; they leave no
    /// workspace behind.
    pub warmup: Vec<Vec<Burst>>,
    /// Per-connection measured bursts, in send order.
    pub conns: Vec<Vec<Burst>>,
    /// Input properties, for the report.
    pub properties: Vec<(&'static str, String)>,
}

impl Plan {
    /// The wire request for `step`; `neutral_id` resolves `RemoveNeutral`.
    pub fn request(&self, step: Step, neutral_id: Option<u64>) -> Request {
        let workspace = self.names[step.ws() as usize].clone();
        match step {
            Step::Create { .. } => Request::CreateWorkspace {
                workspace,
                schema: self.schema.as_ref().clone(),
                arity: 0,
            },
            Step::Drop { .. } => Request::DropWorkspace { workspace },
            Step::Add {
                positive, example, ..
            } => Request::AddExample {
                workspace,
                polarity: polarity(positive),
                example: ExamplePayload::Structured(self.examples[example as usize].clone()),
            },
            Step::Remove { positive, id, .. } => Request::RemoveExample {
                workspace,
                polarity: polarity(positive),
                id,
            },
            Step::AddNeutral { .. } => Request::AddExample {
                workspace,
                polarity: Polarity::Negative,
                example: ExamplePayload::Structured(self.neutral.clone()),
            },
            Step::RemoveNeutral { .. } => Request::RemoveExample {
                workspace,
                polarity: Polarity::Negative,
                id: neutral_id.expect("a neutral removal follows its add"),
            },
            Step::Ask { question, .. } => question.request(workspace),
        }
    }

    /// The example an add step carries.
    pub fn example_of(&self, step: Step) -> Option<&Example> {
        match step {
            Step::Add { example, .. } => Some(&self.examples[example as usize]),
            Step::AddNeutral { .. } => Some(&self.neutral),
            _ => None,
        }
    }
}

fn polarity(positive: bool) -> Polarity {
    if positive {
        Polarity::Positive
    } else {
        Polarity::Negative
    }
}

/// Stirs a seed with stream coordinates (SplitMix64 finalizer).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Size knobs; `full` is the measured configuration, the self-tests use
/// smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sessions per connection of `interactive_fit`.
    pub interactive_sessions: usize,
    /// Sessions of `pipelined_ingest` (16 bursts each).
    pub ingest_sessions: usize,
    /// Bursts per connection of `hot_questions`.
    pub hot_bursts: usize,
}

impl Scale {
    /// Enough inputs that a run of `seconds` does not exhaust them on a
    /// machine several times faster than a 2-core container.
    pub fn for_seconds(seconds: u64) -> Scale {
        let s = seconds.max(1) as usize;
        Scale {
            interactive_sessions: 400 * s,
            ingest_sessions: 25 * s + 10,
            hot_bursts: 3000 * s,
        }
    }
}

/// Positives per `interactive_fit` session.
pub const INTERACTIVE_POSITIVES: usize = 3;
/// Cycle lengths of `interactive_fit` positives.
pub const INTERACTIVE_CYCLES: std::ops::RangeInclusive<usize> = 3..=9;
/// Pendant path lengths of `interactive_fit` positives.
pub const INTERACTIVE_TAILS: std::ops::RangeInclusive<usize> = 0..=2;
/// Requests per `pipelined_ingest` workspace (16 windows of 32).
pub const INGEST_SESSION_REQUESTS: usize = 512;
/// One request in this many of `hot_questions` is a mutation.
///
/// Each mutation costs an fsync and a memo refill.  On the measuring host,
/// in interleaved 10-second runs, throughput at one in 16 fell by 29% over
/// four minutes and at one in 256 by 12%: the mutations carried most of
/// the host's drift.  One in 64 keeps the read path in front.
pub const HOT_MUTATION_ONE_IN: u32 = 64;

/// Generates a workload's plan.
pub fn plan(workload: Workload, seed: u64, scale: Scale) -> Plan {
    match workload {
        Workload::InteractiveFit => interactive(seed, scale),
        Workload::PipelinedIngest => ingest(seed, scale),
        Workload::HotQuestions => hot(seed, scale),
    }
}

/// An `interactive_fit` positive: a directed cycle of seeded length with
/// a pendant directed path hanging off it, its values labelled after the
/// workspace so that no two sessions share a core-cache key.
///
/// Cycles bound the cost of coring the product (a union of cycles with
/// tails).  Products of `random_example` digraphs of this size instead
/// hit cores that take tens of seconds on a few sessions in ten thousand.
fn cycle_with_tail(schema: &Arc<Schema>, tag: &str, rng: &mut StdRng) -> Example {
    let mut e = directed_cycle(schema, rng.gen_range(INTERACTIVE_CYCLES));
    let inst = e.instance_mut();
    let edge = schema.rel("R").expect("digraph schema");
    let mut at = inst.values().next().expect("cycle values");
    for _ in 0..rng.gen_range(INTERACTIVE_TAILS) {
        let next = inst.add_value("tail");
        inst.add_fact(edge, &[at, next]).expect("digraph fact");
        at = next;
    }
    for (i, v) in inst.values().collect::<Vec<_>>().into_iter().enumerate() {
        inst.set_label(v, format!("{tag}.{i}"));
    }
    e
}

/// Stream id of the warm-up sessions.
const WARMUP_STREAM: u64 = 1000;

fn interactive(seed: u64, scale: Scale) -> Plan {
    let schema = Schema::digraph();
    let mut names = Vec::new();
    let mut examples = Vec::new();
    let mut session = |stream: u64, k: usize, name: String| -> Vec<Burst> {
        let stream_seed = if stream == WARMUP_STREAM { 0 } else { seed };
        let mut rng = StdRng::seed_from_u64(mix(stream_seed, stream, k as u64));
        let ws = names.len() as u32;
        let positives = (0..INTERACTIVE_POSITIVES)
            .map(|p| cycle_with_tail(&schema, &format!("{name}.{p}"), &mut rng))
            .collect::<Vec<_>>();
        names.push(name);
        let mut steps = vec![Step::Create { ws }];
        // A short cycle, which the product maps into exactly when its
        // length divides every cycle length of the product, and an
        // acyclic negative from the path/order duality of Example 2.14.
        let acyclic = if rng.gen_bool(0.5) {
            linear_order(&schema, rng.gen_range(3..7))
        } else {
            directed_path(&schema, rng.gen_range(2..6))
        };
        let negatives = [directed_cycle(&schema, rng.gen_range(2..5)), acyclic];
        let polarities = positives
            .into_iter()
            .map(|e| (true, e))
            .chain(negatives.into_iter().map(|e| (false, e)));
        for (positive, e) in polarities {
            let example = examples.len() as u32;
            examples.push(e);
            steps.push(Step::Add {
                ws,
                positive,
                example,
            });
            steps.push(Step::Ask {
                ws,
                question: Question::ExistsCq,
            });
            steps.push(Step::Ask {
                ws,
                question: Question::FitCqMin,
            });
        }
        steps.push(Step::Ask {
            ws,
            question: Question::FitUcqPlain,
        });
        steps.push(Step::Drop { ws });
        let last = steps.len() - 1;
        steps
            .into_iter()
            .enumerate()
            .map(|(i, step)| Burst {
                steps: vec![step],
                session_start: i == 0,
                session_end: i == last,
            })
            .collect()
    };
    let conns = Workload::InteractiveFit.connections();
    // The warm-up sessions come from a fixed seed, so set-up time does
    // not depend on the workload seed.
    let warmup: Vec<Vec<Burst>> = (0..conns)
        .map(|c| session(WARMUP_STREAM, c, format!("warm-{c}")))
        .collect();
    let conn_bursts: Vec<Vec<Burst>> = (0..conns)
        .map(|c| {
            (0..scale.interactive_sessions)
                .flat_map(|k| session(c as u64, k, format!("qbe-{c}-{k}")))
                .collect()
        })
        .collect();
    Plan {
        workload: Workload::InteractiveFit,
        seed,
        schema: schema.clone(),
        neutral: directed_path(&schema, 2),
        names,
        examples,
        population: Vec::new(),
        warmup,
        conns: conn_bursts,
        properties: vec![
            ("positives_per_session", INTERACTIVE_POSITIVES.to_string()),
            (
                "positive",
                "directed cycle of 3-9 edges with a pendant path of 0-2 edges".to_string(),
            ),
            (
                "negatives_per_session",
                "2: directed cycle of 2-4 edges; linear order of 3-6 values or directed path of 2-5 edges"
                    .to_string(),
            ),
            ("requests_per_session", "18".to_string()),
        ],
    }
}

fn ingest(seed: u64, scale: Scale) -> Plan {
    let schema = Schema::digraph();
    let depth = Workload::PipelinedIngest.depth();
    let mut names = Vec::new();
    let mut examples = Vec::new();
    let mut session = |k: u64, name: String, mutations: usize| -> Vec<Step> {
        let ws = names.len() as u32;
        names.push(name);
        let cfg = RandomConfig {
            num_values: 4,
            density: 0.3,
            arity: 0,
            num_positive: 3,
            num_negative: 4,
            seed: mix(seed, 7, k),
        };
        let ops = churn_workload(&schema, &cfg, mutations);
        let mut steps = vec![Step::Create { ws }];
        for op in resolve_churn(&ops, 0) {
            steps.push(match op {
                ResolvedChurnOp::Add { positive, example } => {
                    examples.push(*example);
                    Step::Add {
                        ws,
                        positive,
                        example: examples.len() as u32 - 1,
                    }
                }
                ResolvedChurnOp::Remove { positive, id } => Step::Remove { ws, positive, id },
            });
        }
        steps
    };
    let bursts = |steps: Vec<Step>| -> Vec<Burst> {
        steps
            .chunks(depth)
            .map(|chunk| Burst {
                steps: chunk.to_vec(),
                session_start: true,
                session_end: true,
            })
            .collect()
    };
    // The warm-up workspace is dropped again, so recovery sees only the
    // measured sessions.
    let mut warm = session(u64::MAX, "warm".to_string(), depth - 2);
    warm.push(Step::Drop { ws: 0 });
    let warmup = vec![bursts(warm)];
    // Each workspace closes with one plain fit, so that the run has a
    // fit latency like the other workloads; no core is computed.
    let measured: Vec<Burst> = (0..scale.ingest_sessions)
        .flat_map(|k| {
            let mut steps = session(k as u64, format!("ingest-{k}"), INGEST_SESSION_REQUESTS - 2);
            steps.push(Step::Ask {
                ws: steps[0].ws(),
                question: Question::FitCqPlain,
            });
            bursts(steps)
        })
        .collect();
    Plan {
        workload: Workload::PipelinedIngest,
        seed,
        schema: schema.clone(),
        neutral: directed_path(&schema, 2),
        names,
        examples,
        population: Vec::new(),
        warmup,
        conns: vec![measured],
        properties: vec![
            (
                "requests_per_workspace",
                format!("{INGEST_SESSION_REQUESTS}, the last a plain CQ fit"),
            ),
            ("values_per_example", "4".to_string()),
            ("edge_density", "0.3".to_string()),
            ("live_positive_cap", "3".to_string()),
            ("live_negative_cap", "4".to_string()),
        ],
    }
}

/// The populated workspaces of `hot_questions`: paper families whose
/// positives all contain a directed cycle, so a directed-path negative
/// can never change an answer.
fn hot_families(schema: &Arc<Schema>) -> Vec<(&'static str, Vec<Example>, Vec<Example>)> {
    let family = |name, l: cqfit_data::LabeledExamples| {
        (name, l.positives().to_vec(), l.negatives().to_vec())
    };
    let cycles = |lens: &[usize]| -> Vec<Example> {
        lens.iter().map(|&n| directed_cycle(schema, n)).collect()
    };
    vec![
        family("prime-cycles-3", prime_cycles_family(3)),
        family("prime-cycles-4", prime_cycles_family(4)),
        family("colorability-2", exact_colorability(2)),
        family("colorability-3", exact_colorability(3)),
        family("colorability-4", exact_colorability(4)),
        ("cycles-4-6", cycles(&[4, 6]), cycles(&[3])),
        ("cycles-6-9", cycles(&[6, 9]), cycles(&[2])),
        ("cycles-5-10", cycles(&[5, 10]), cycles(&[2, 3])),
    ]
}

/// The questions of `hot_questions`.
pub const HOT_QUESTIONS: [Question; 4] = [
    Question::ExistsCq,
    Question::FitCqMin,
    Question::FitCqPlain,
    Question::ExistsUcq,
];

/// Most neutral negatives one connection keeps live in one workspace.
const HOT_LIVE_NEUTRALS: u32 = 2;

fn hot(seed: u64, scale: Scale) -> Plan {
    let schema = Schema::digraph();
    let depth = Workload::HotQuestions.depth();
    let families = hot_families(&schema);
    let workspaces = families.len() as u32;
    let mut names = Vec::new();
    let mut examples = Vec::new();
    let mut population = Vec::new();
    for (name, positives, negatives) in families {
        let ws = names.len() as u32;
        names.push(format!("hot-{name}"));
        population.push(Step::Create { ws });
        for (positive, e) in positives
            .into_iter()
            .map(|e| (true, e))
            .chain(negatives.into_iter().map(|e| (false, e)))
        {
            examples.push(e);
            population.push(Step::Add {
                ws,
                positive,
                example: examples.len() as u32 - 1,
            });
        }
    }
    let all_questions = |ws_count: u32| -> Vec<Step> {
        (0..ws_count)
            .flat_map(|ws| HOT_QUESTIONS.map(|question| Step::Ask { ws, question }))
            .collect()
    };
    let one_burst = |steps: Vec<Step>| Burst {
        steps,
        session_start: true,
        session_end: true,
    };
    let population: Vec<Burst> = population
        .chunks(depth)
        .map(|c| one_burst(c.to_vec()))
        .chain(
            all_questions(workspaces)
                .chunks(depth)
                .map(|c| one_burst(c.to_vec())),
        )
        .collect();
    let conns = Workload::HotQuestions.connections();
    let warmup = (0..conns)
        .map(|_| {
            all_questions(workspaces)
                .chunks(depth)
                .map(|c| one_burst(c.to_vec()))
                .collect()
        })
        .collect();
    let conn_bursts = (0..conns)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 11, c as u64));
            let mut live = vec![0u32; workspaces as usize];
            (0..scale.hot_bursts)
                .map(|_| {
                    let mut added = vec![0u32; workspaces as usize];
                    let steps = (0..depth)
                        .map(|_| {
                            let ws = rng.gen_range(0..workspaces);
                            let w = ws as usize;
                            if rng.gen_range(0..HOT_MUTATION_ONE_IN) == 0 {
                                // Only neutrals added in an earlier burst
                                // have a known id to remove.
                                let removable = live[w] > 0;
                                if removable
                                    && (live[w] + added[w] >= HOT_LIVE_NEUTRALS
                                        || rng.gen_bool(0.5))
                                {
                                    live[w] -= 1;
                                    Step::RemoveNeutral { ws }
                                } else if live[w] + added[w] < HOT_LIVE_NEUTRALS {
                                    added[w] += 1;
                                    Step::AddNeutral { ws }
                                } else {
                                    Step::Ask {
                                        ws,
                                        question: Question::ExistsCq,
                                    }
                                }
                            } else {
                                let question = HOT_QUESTIONS[rng.gen_range(0..HOT_QUESTIONS.len())];
                                Step::Ask { ws, question }
                            }
                        })
                        .collect();
                    for (l, a) in live.iter_mut().zip(&added) {
                        *l += a;
                    }
                    one_burst(steps)
                })
                .collect()
        })
        .collect();
    Plan {
        workload: Workload::HotQuestions,
        seed,
        schema: schema.clone(),
        neutral: directed_path(&schema, 3),
        names,
        examples,
        population,
        warmup,
        conns: conn_bursts,
        properties: vec![
            ("workspaces", workspaces.to_string()),
            (
                "families",
                "prime cycles, exact colorability, cycle pairs".to_string(),
            ),
            ("mutation_one_in", HOT_MUTATION_ONE_IN.to_string()),
            ("neutral_negative", "directed path of 3 edges".to_string()),
        ],
    }
}
