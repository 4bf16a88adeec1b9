//! Set-up and the closed-loop TCP run.

use crate::layers::{client, engine, server};
use crate::workload::{Burst, Plan, Step};
use cqfit_engine::{Client, Engine, Request, Response};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A reply reduced to what the correctness gate compares.  Fitting
/// queries compare by size and by a hash of their rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Workspace created.
    Created,
    /// Workspace dropped (whether it existed).
    Dropped(bool),
    /// Example added with this id.
    Added(u64),
    /// Example removed (whether it existed).
    Removed(bool),
    /// Existence answer.
    Exists(bool),
    /// Fitting query: `(size, rendering hash)`, or none.
    Fit(Option<(usize, u64)>),
    /// Any other successful reply.
    Other,
    /// An error reply or a transport failure.
    Error(String),
}

impl Answer {
    /// Reduces a response.
    pub fn of(response: &Response) -> Answer {
        match response {
            Response::WorkspaceCreated { .. } => Answer::Created,
            Response::WorkspaceDropped { existed, .. } => Answer::Dropped(*existed),
            Response::ExampleAdded { id, .. } => Answer::Added(*id),
            Response::ExampleRemoved { removed, .. } => Answer::Removed(*removed),
            Response::Exists { exists, .. } => Answer::Exists(*exists),
            Response::Fitting { query, .. } => {
                Answer::Fit(query.as_ref().map(|q| (q.size(), text_hash(&q.display()))))
            }
            Response::Error { message, .. } => Answer::Error(message.clone()),
            _ => Answer::Other,
        }
    }

    /// A fitting answer from a query's size and rendering.
    pub fn fit(query: Option<(usize, String)>) -> Answer {
        Answer::Fit(query.map(|(size, text)| (size, text_hash(&text))))
    }

    /// Whether this is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, Answer::Error(_))
    }
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Turns steps into requests for one connection, remembering the ids of
/// the neutral negatives it added so that later removals can name them.
#[derive(Debug, Default)]
pub struct Resolver {
    neutrals: HashMap<u32, Vec<u64>>,
}

impl Resolver {
    /// The requests of a burst.
    pub fn requests(&mut self, plan: &Plan, steps: &[Step]) -> Vec<Request> {
        steps
            .iter()
            .map(|&step| {
                let id = match step {
                    Step::RemoveNeutral { ws } => Some(self.take_neutral(ws)),
                    _ => None,
                };
                plan.request(step, id)
            })
            .collect()
    }

    /// The id the next `RemoveNeutral` on `ws` names: one of the neutral
    /// negatives this connection added there.
    pub fn take_neutral(&mut self, ws: u32) -> u64 {
        self.neutrals
            .get_mut(&ws)
            .and_then(Vec::pop)
            .expect("a neutral removal follows its add")
    }

    /// Records the id an `AddNeutral` received.
    pub fn note_neutral(&mut self, ws: u32, id: u64) {
        self.neutrals.entry(ws).or_default().push(id);
    }

    /// Records the ids the burst's neutral adds received.
    pub fn absorb(&mut self, steps: &[Step], answers: &[Answer]) {
        for (step, answer) in steps.iter().zip(answers) {
            if let (Step::AddNeutral { ws }, Answer::Added(id)) = (step, answer) {
                self.note_neutral(*ws, *id);
            }
        }
    }
}

/// One answered burst.
#[derive(Debug)]
pub struct BurstRun {
    /// Send to last reply, nanoseconds.
    pub latency_ns: u64,
    /// The replies.
    pub answers: Vec<Answer>,
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Per completed burst, in send order.
    pub bursts: Vec<BurstRun>,
    /// Latency of each completed session, nanoseconds.
    pub sessions: Vec<u64>,
    /// Client retries and reconnects during the run.
    pub retries: u64,
    /// See `retries`.
    pub reconnects: u64,
}

/// The measured TCP run.
#[derive(Debug)]
pub struct TcpRun {
    /// Per connection.
    pub conns: Vec<ConnRun>,
    /// From the start barrier to the last connection's finish.
    pub wall: Duration,
}

/// A set-up stack: durable engine, server, connected clients.
pub struct Stack {
    /// The engine behind the server.
    pub engine: Arc<Engine>,
    /// The running server.
    pub server: server::Running,
    /// One client per connection.
    pub clients: Vec<Client>,
}

/// Sends bursts on one client, failing on any error reply.
fn send_checked(plan: &Plan, client: &mut Client, bursts: &[Burst]) -> Result<(), String> {
    let mut resolver = Resolver::default();
    for burst in bursts {
        let requests = resolver.requests(plan, &burst.steps);
        let replies = client::send(client, &requests).map_err(|e| format!("set-up: {e}"))?;
        let answers: Vec<Answer> = replies.iter().map(Answer::of).collect();
        if let Some(bad) = answers.iter().find(|a| a.is_error()) {
            return Err(format!("set-up request failed: {bad:?}"));
        }
        resolver.absorb(&burst.steps, &answers);
    }
    Ok(())
}

/// Opens the store, binds the server, connects the clients, populates
/// and warms up.  This is what `setup_s` times.
pub fn setup(plan: &Plan, dir: &Path) -> Result<Stack, String> {
    let (engine, _) = engine::open_durable(dir).map_err(|e| format!("store open: {e}"))?;
    let engine = Arc::new(engine);
    let server = server::start(Arc::clone(&engine)).map_err(|e| format!("server bind: {e}"))?;
    let mut clients = (0..plan.workload.connections())
        .map(|_| client::connect(&server.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    send_checked(plan, &mut clients[0], &plan.population)?;
    for (client, warmup) in clients.iter_mut().zip(&plan.warmup) {
        send_checked(plan, client, warmup)?;
    }
    Ok(Stack {
        engine,
        server,
        clients,
    })
}

/// Stops the server and waits for it; the engine is released when the
/// last handle drops.
pub fn teardown(stack: Stack) -> Result<Arc<Engine>, String> {
    drop(stack.clients);
    server::stop(stack.server).map_err(|e| format!("server stop: {e}"))?;
    Ok(stack.engine)
}

/// Runs every connection's bursts in a closed loop until `seconds` pass
/// or its bursts run out.
pub fn run(plan: &Plan, clients: &mut [Client], seconds: u64) -> TcpRun {
    let start = Barrier::new(clients.len() + 1);
    let limit = Duration::from_secs(seconds);
    let (conns, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plan.conns)
            .map(|(client, bursts)| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let begun = Instant::now();
                    let run = run_conn(plan, client, bursts, begun + limit);
                    (run, begun.elapsed())
                })
            })
            .collect();
        start.wait();
        let results: Vec<(ConnRun, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        let wall = results.iter().map(|(_, d)| *d).max().unwrap_or_default();
        (results.into_iter().map(|(r, _)| r).collect(), wall)
    });
    TcpRun { conns, wall }
}

fn run_conn(plan: &Plan, client: &mut Client, bursts: &[Burst], deadline: Instant) -> ConnRun {
    let (retries0, reconnects0) = client::counters(client);
    let mut resolver = Resolver::default();
    let mut out = ConnRun::default();
    let mut session_began = None;
    for burst in bursts {
        if Instant::now() >= deadline {
            break;
        }
        let requests = resolver.requests(plan, &burst.steps);
        let sent = Instant::now();
        if burst.session_start {
            session_began = Some(sent);
        }
        let replies = client::send(client, &requests);
        let done = Instant::now();
        let answers: Vec<Answer> = match replies {
            Ok(replies) => replies.iter().map(Answer::of).collect(),
            Err(e) => vec![Answer::Error(format!("transport: {e}")); requests.len()],
        };
        resolver.absorb(&burst.steps, &answers);
        if burst.session_end {
            if let Some(began) = session_began.take() {
                out.sessions.push((done - began).as_nanos() as u64);
            }
        }
        out.bursts.push(BurstRun {
            latency_ns: (done - sent).as_nanos() as u64,
            answers,
        });
    }
    let (retries, reconnects) = client::counters(client);
    out.retries = retries - retries0;
    out.reconnects = reconnects - reconnects0;
    out
}
