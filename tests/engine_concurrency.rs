//! Concurrency certification of the engine: N client threads hammering one
//! shared [`Engine`] with interleaved add-example / fit requests must
//! yield exactly the fittings the equivalent sequential batch calls yield.
//!
//! Design: each thread owns a disjoint set of workspaces (per-workspace
//! request order is what the engine guarantees; cross-workspace order is
//! unconstrained), all threads share one engine — and therefore one
//! workspace map and one hom-cache, which is where the races would live.
//! A second suite fires *read-only* fit/exists volleys at a single
//! workspace from many threads and checks every answer is identical.
//!
//! Workloads are fixed-seed; the differential oracle is a fresh engine
//! processing the same per-workspace request streams sequentially.

use cqfit_data::Schema;
use cqfit_engine::{
    Engine, EngineConfig, Envelope, ExamplePayload, FitMode, Polarity, QueryClass, Request,
    Response,
};
use cqfit_gen::{random_example, RandomConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The per-workspace request stream for one fixed seed: create, then an
/// interleaving of adds and fits.
fn workspace_stream(ws: &str, seed: u64) -> Vec<Request> {
    let schema = Schema::digraph();
    let cfg = RandomConfig {
        num_values: 4,
        density: 0.3,
        arity: 0,
        seed,
        ..RandomConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs = vec![Request::CreateWorkspace {
        workspace: ws.into(),
        schema: Schema::new([("R", 2)]).unwrap(),
        arity: 0,
    }];
    let mut positives = 0usize;
    for _ in 0..8 {
        let e = random_example(&schema, &cfg, &mut rng);
        // Cap the positive factor count: the maintained product grows
        // multiplicatively in the number of positives.
        let polarity = if rng.gen_bool(0.6) && positives < 3 {
            positives += 1;
            Polarity::Positive
        } else {
            Polarity::Negative
        };
        reqs.push(Request::AddExample {
            workspace: ws.into(),
            polarity,
            example: ExamplePayload::Structured(e),
        });
        match rng.gen_range(0..3u32) {
            0 => reqs.push(Request::Fit {
                workspace: ws.into(),
                class: QueryClass::Cq,
                mode: FitMode::Minimized,
            }),
            1 => reqs.push(Request::FittingExists {
                workspace: ws.into(),
                class: QueryClass::Ucq,
            }),
            _ => {}
        }
    }
    reqs.push(Request::Fit {
        workspace: ws.into(),
        class: QueryClass::Cq,
        mode: FitMode::Minimized,
    });
    reqs.push(Request::Fit {
        workspace: ws.into(),
        class: QueryClass::Ucq,
        mode: FitMode::Plain,
    });
    reqs
}

/// Serializes responses for comparison (JSON is deterministic).
fn render(responses: &[Response]) -> Vec<String> {
    responses.iter().map(serde::to_string).collect()
}

#[test]
fn concurrent_sessions_match_sequential_batch() {
    const THREADS: usize = 8;
    let concurrent = Arc::new(Engine::new(EngineConfig::default()));
    let sequential = Engine::new(EngineConfig::default());

    let streams: Vec<(String, Vec<Request>)> = (0..THREADS)
        .map(|t| {
            let ws = format!("ws{t}");
            let stream = workspace_stream(&ws, 7_000 + t as u64);
            (ws, stream)
        })
        .collect();

    // Concurrent run: one thread per workspace, all hammering the shared
    // engine (shared workspace map, shared hom-cache).
    let concurrent_out: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|(_, stream)| {
                let engine = Arc::clone(&concurrent);
                scope.spawn(move || {
                    let responses: Vec<Response> =
                        stream.iter().map(|r| engine.handle(r)).collect();
                    render(&responses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });

    // Sequential oracle: same streams, one after another, fresh engine.
    for ((_, stream), concurrent_rendered) in streams.iter().zip(&concurrent_out) {
        let sequential_responses: Vec<Response> =
            stream.iter().map(|r| sequential.handle(r)).collect();
        assert_eq!(
            &render(&sequential_responses),
            concurrent_rendered,
            "concurrent session diverged from the sequential batch"
        );
    }

    // Sanity: the engines really processed all workspaces.
    match concurrent.handle(&Request::ListWorkspaces) {
        Response::Workspaces { names } => assert_eq!(names.len(), THREADS),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn handle_batch_matches_per_request_calls() {
    let a = Engine::new(EngineConfig::default());
    let b = Engine::new(EngineConfig::default());
    let mut all: Vec<Request> = Vec::new();
    for t in 0..4 {
        all.extend(workspace_stream(&format!("w{t}"), 9_100 + t as u64));
    }
    let window: Vec<Envelope> = all.iter().map(|r| Envelope::new(r, None)).collect();
    let batched = b.handle_window(&window);
    let sequential: Vec<Response> = all.iter().map(|r| a.handle(r)).collect();
    assert_eq!(render(&sequential), render(&batched));
}

#[test]
fn read_only_volley_is_consistent() {
    const READERS: usize = 12;
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    // Prepare one workspace with a non-trivial fitting (C3 × C5 vs C2).
    for req in [
        Request::CreateWorkspace {
            workspace: "shared".into(),
            schema: Schema::new([("R", 2)]).unwrap(),
            arity: 0,
        },
        Request::AddExample {
            workspace: "shared".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)\nR(b,c)\nR(c,a)".into()),
        },
        Request::AddExample {
            workspace: "shared".into(),
            polarity: Polarity::Positive,
            example: ExamplePayload::Text("R(a,b)\nR(b,c)\nR(c,d)\nR(d,e)\nR(e,a)".into()),
        },
        Request::AddExample {
            workspace: "shared".into(),
            polarity: Polarity::Negative,
            example: ExamplePayload::Text("R(a,b)\nR(b,a)".into()),
        },
    ] {
        assert!(engine.handle(&req).is_ok());
    }
    let fit = Request::Fit {
        workspace: "shared".into(),
        class: QueryClass::Cq,
        mode: FitMode::Minimized,
    };
    let expected = serde::to_string(&engine.handle(&fit));
    let answers: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let fit = fit.clone();
                scope.spawn(move || {
                    (0..5)
                        .map(|_| serde::to_string(&engine.handle(&fit)))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    for per_thread in answers {
        for answer in per_thread {
            assert_eq!(
                answer, expected,
                "read-only volley returned a different fitting"
            );
        }
    }
}
