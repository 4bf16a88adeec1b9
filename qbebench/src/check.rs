//! The correctness gate: every reply against a storeless in-process
//! oracle engine fed the same seeded steps, plus the durability recheck.

use crate::drive::{Answer, Resolver};
use crate::layers::engine;
use crate::workload::{Plan, Question, Step, Workload, HOT_QUESTIONS};
use cqfit_engine::{Engine, Request, Response};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

/// What the oracle says the replies must be.
pub enum Expect {
    /// Exact answers per connection, per completed burst.
    Exact(Vec<Vec<Vec<Answer>>>),
    /// `hot_questions`: questions have fixed answers whatever the
    /// interleaving; neutral adds and removes must succeed.
    Hot(HashMap<(u32, Question), Answer>),
}

/// The oracle: a storeless engine that has answered the same steps.
pub struct Oracle {
    /// The oracle engine, in its end state.
    pub engine: Engine,
    /// Expected replies.
    pub expect: Expect,
    /// Expected answers of the closing check, per live workspace.
    pub closing: Vec<(u32, Vec<Answer>)>,
}

/// Count of checked replies and of failures among them.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Replies checked.
    pub checked: u64,
    /// Error replies, transport failures and wrong answers.
    pub failed: u64,
    /// The first failure, for the report.
    pub first: Option<String>,
}

impl Verdict {
    /// Records one comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            if self.first.is_none() {
                self.first = Some(what());
            }
        }
    }

    /// Adds another verdict's counts.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// Feeds bursts to an engine without ids and collects the answers.
pub fn answer_bursts<'a>(
    plan: &Plan,
    engine: &Engine,
    bursts: impl IntoIterator<Item = &'a crate::workload::Burst>,
) -> Vec<Vec<Answer>> {
    let mut resolver = Resolver::default();
    bursts
        .into_iter()
        .map(|burst| {
            let requests: Vec<(Request, Option<u64>)> = resolver
                .requests(plan, &burst.steps)
                .into_iter()
                .map(|r| (r, None))
                .collect();
            let answers: Vec<Answer> = engine::window(engine, &requests)
                .iter()
                .map(Answer::of)
                .collect();
            resolver.absorb(&burst.steps, &answers);
            answers
        })
        .collect()
}

/// Workspaces alive after the population and the completed bursts.
pub fn live_workspaces(plan: &Plan, completed: &[usize]) -> Vec<u32> {
    let mut live = BTreeSet::new();
    let population = plan.population.iter().flat_map(|b| &b.steps);
    let stream = plan
        .conns
        .iter()
        .zip(completed)
        .flat_map(|(bursts, &n)| bursts[..n].iter().flat_map(|b| &b.steps));
    for step in population.chain(stream) {
        match *step {
            Step::Create { ws } => {
                live.insert(ws);
            }
            Step::Drop { ws } => {
                live.remove(&ws);
            }
            _ => {}
        }
    }
    live.into_iter().collect()
}

/// The closing check asked of every live workspace: does a CQ fit, and
/// which cored one.
pub const CLOSING: [Question; 2] = [Question::ExistsCq, Question::FitCqMin];

/// Asks the closing questions of `ws` through the engine.
pub fn closing_answers(plan: &Plan, engine: &Engine, ws: u32) -> Vec<Answer> {
    CLOSING
        .iter()
        .map(|q| {
            let request = q.request(plan.names[ws as usize].clone());
            Answer::of(&engine::window(engine, &[(request, None)])[0])
        })
        .collect()
}

/// Builds the oracle for the bursts each connection completed.
pub fn oracle(plan: &Plan, completed: &[usize]) -> Result<Oracle, String> {
    let engine = engine::open_oracle();
    let expect = match plan.workload {
        Workload::HotQuestions => Expect::Hot(hot_expectations(plan, &engine)?),
        Workload::InteractiveFit | Workload::PipelinedIngest => {
            let per_conn = std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .conns
                    .iter()
                    .zip(completed)
                    .map(|(bursts, &n)| {
                        let engine = &engine;
                        scope.spawn(move || answer_bursts(plan, engine, &bursts[..n]))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("oracle thread panicked"))
                    .collect()
            });
            Expect::Exact(per_conn)
        }
    };
    let closing = live_workspaces(plan, completed)
        .into_iter()
        .map(|ws| (ws, closing_answers(plan, &engine, ws)))
        .collect();
    Ok(Oracle {
        engine,
        expect,
        closing,
    })
}

/// Populates the oracle and fixes every question's answer, after making
/// sure the neutral negative really leaves each answer unchanged.
fn hot_expectations(
    plan: &Plan,
    engine: &Engine,
) -> Result<HashMap<(u32, Question), Answer>, String> {
    for answers in answer_bursts(plan, engine, &plan.population) {
        if let Some(bad) = answers.iter().find(|a| a.is_error()) {
            return Err(format!("oracle population failed: {bad:?}"));
        }
    }
    let ask = |ws: u32, q: Question| {
        let request = q.request(plan.names[ws as usize].clone());
        Answer::of(&engine::window(engine, &[(request, None)])[0])
    };
    let workspaces = (0..plan.names.len() as u32).collect::<Vec<_>>();
    let mut expected = HashMap::new();
    for &ws in &workspaces {
        for q in HOT_QUESTIONS {
            expected.insert((ws, q), ask(ws, q));
        }
        let add = plan.request(Step::AddNeutral { ws }, None);
        let Answer::Added(id) = Answer::of(&engine::window(engine, &[(add, None)])[0]) else {
            return Err("oracle neutral add failed".into());
        };
        for q in HOT_QUESTIONS {
            if ask(ws, q) != expected[&(ws, q)] {
                return Err(format!(
                    "the neutral negative changes {q:?} on {}",
                    plan.names[ws as usize]
                ));
            }
        }
        let remove = plan.request(Step::RemoveNeutral { ws }, Some(id));
        engine::window(engine, &[(remove, None)]);
    }
    Ok(expected)
}

/// Checks a run's answers (per connection, per burst) against the oracle.
pub fn check_stream(plan: &Plan, oracle: &Oracle, conns: &[Vec<&[Answer]>]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut neutral_ids = HashSet::new();
    for (c, bursts) in conns.iter().enumerate() {
        for (b, answers) in bursts.iter().enumerate() {
            let steps = &plan.conns[c][b].steps;
            for (i, (step, got)) in steps.iter().zip(answers.iter()).enumerate() {
                let want = expected_answer(oracle, c, b, i, *step, got, &mut neutral_ids);
                verdict.check(!got.is_error() && want.as_ref() == Some(got), || {
                    format!(
                        "{} conn {c} burst {b} step {step:?}: got {got:?}, want {want:?}",
                        plan.workload.name()
                    )
                });
            }
        }
    }
    verdict
}

fn expected_answer(
    oracle: &Oracle,
    c: usize,
    b: usize,
    i: usize,
    step: Step,
    got: &Answer,
    neutral_ids: &mut HashSet<(u32, u64)>,
) -> Option<Answer> {
    match &oracle.expect {
        Expect::Exact(per_conn) => per_conn.get(c)?.get(b)?.get(i).cloned(),
        Expect::Hot(expected) => match step {
            Step::Ask { ws, question } => expected.get(&(ws, question)).cloned(),
            // Ids depend on the interleaving; they must only be fresh.
            Step::AddNeutral { ws } => match got {
                Answer::Added(id) if neutral_ids.insert((ws, *id)) => Some(got.clone()),
                _ => None,
            },
            Step::RemoveNeutral { .. } => Some(Answer::Removed(true)),
            _ => None,
        },
    }
}

/// Checks closing answers against the oracle's.
pub fn check_closing(plan: &Plan, oracle: &Oracle, got: &[(u32, Vec<Answer>)]) -> Verdict {
    let mut verdict = Verdict::default();
    verdict.check(got.len() == oracle.closing.len(), || {
        format!(
            "closing check saw {} live workspaces, oracle {}",
            got.len(),
            oracle.closing.len()
        )
    });
    for ((ws, answers), (want_ws, want)) in got.iter().zip(&oracle.closing) {
        verdict.check(ws == want_ws && answers == want, || {
            format!(
                "closing answers of {}: got {answers:?}, want {want:?}",
                plan.names[*ws as usize]
            )
        });
    }
    verdict
}

/// Mutation records the completed bursts leave in the logs.
pub fn logged_records(plan: &Plan, completed: &[usize]) -> u64 {
    plan.conns
        .iter()
        .zip(completed)
        .flat_map(|(bursts, &n)| bursts[..n].iter().flat_map(|b| &b.steps))
        .filter(|s| s.is_mutation() && !matches!(s, Step::Drop { .. }))
        .count() as u64
}

/// Reopens the store in `dir` through `Engine::with_store` and compares
/// what recovery restored with the oracle.
pub fn recheck_durability(
    plan: &Plan,
    oracle: &Oracle,
    dir: &Path,
    completed: &[usize],
) -> Result<Verdict, String> {
    let (recovered, report) =
        engine::open_durable(dir).map_err(|e| format!("reopening the store: {e}"))?;
    let live = live_workspaces(plan, completed);
    let mut verdict = Verdict::default();
    let want_records = logged_records(plan, completed);
    verdict.check(report.records_replayed == want_records, || {
        format!(
            "recovery replayed {} records, oracle logged {want_records}",
            report.records_replayed
        )
    });
    verdict.check(report.workspaces == live.len(), || {
        format!(
            "recovery restored {} workspaces, oracle has {}",
            report.workspaces,
            live.len()
        )
    });
    let info = |engine: &Engine, ws: u32| {
        let request = Request::WorkspaceInfo {
            workspace: plan.names[ws as usize].clone(),
        };
        match &engine::window(engine, &[(request, None)])[0] {
            Response::Info {
                positives,
                negatives,
                revision,
                ..
            } => Some((*positives, *negatives, *revision)),
            _ => None,
        }
    };
    for &ws in &live {
        let (got, want) = (info(&recovered, ws), info(&oracle.engine, ws));
        verdict.check(got.is_some() && got == want, || {
            format!(
                "recovered {} is {got:?}, oracle {want:?}",
                plan.names[ws as usize]
            )
        });
    }
    let closing: Vec<(u32, Vec<Answer>)> = live
        .iter()
        .map(|&ws| (ws, closing_answers(plan, &recovered, ws)))
        .collect();
    verdict.merge(check_closing(plan, oracle, &closing));
    Ok(verdict)
}

/// The oracle's answer to the question step at `(conn, burst, index)`;
/// `None` for mutations.
pub fn expected_question(
    oracle: &Oracle,
    c: usize,
    b: usize,
    i: usize,
    step: Step,
) -> Option<Answer> {
    let Step::Ask { ws, question } = step else {
        return None;
    };
    match &oracle.expect {
        Expect::Exact(per_conn) => per_conn.get(c)?.get(b)?.get(i).cloned(),
        Expect::Hot(expected) => expected.get(&(ws, question)).cloned(),
    }
}
