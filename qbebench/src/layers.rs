//! One small adapter per program layer.  Every call the benchmark makes
//! into cqfit goes through this module, so a change to a layer's public
//! entry points (for example folding `Engine::handle*` into one window
//! call) touches one function here and none of the measurement logic.

/// `cqfit-engine` engine and workspace.
pub mod engine {
    use cqfit_engine::{Engine, EngineConfig, Request, Response};
    use cqfit_store::{RecoveryReport, StoreError};
    use std::path::Path;

    /// A durable engine over a store in `dir` with fsync on every
    /// acknowledged mutation (the production flush policy).
    pub fn open_durable(dir: &Path) -> Result<(Engine, RecoveryReport), StoreError> {
        Engine::with_store(EngineConfig::default(), super::store::open(dir)?)
    }

    /// The storeless oracle engine.
    pub fn open_oracle() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// Handles one pipeline window the way the server dispatches it: a
    /// window of one goes through the single-request path, a larger one
    /// through the batch path.  Every request carries its idempotency id.
    pub fn window(engine: &Engine, requests: &[(Request, Option<u64>)]) -> Vec<Response> {
        match requests {
            [(request, id)] => vec![engine.handle_with_id(request, *id)],
            _ => engine.handle_batch_with_ids(requests),
        }
    }

    /// Number of fitting answers the engine computed rather than served
    /// from a workspace memo.
    pub fn computed_answers(engine: &Engine) -> u64 {
        engine.registry().engine_fit_ns.count()
    }
}

/// `cqfit-engine` server, protocol and loopback.
pub mod server {
    use cqfit_engine::{Engine, Server};
    use std::io;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// A server running on its own thread.
    pub struct Running {
        /// The bound loopback address.
        pub addr: String,
        thread: JoinHandle<io::Result<()>>,
    }

    /// Binds an ephemeral loopback port and serves on a new thread with
    /// the production loop (`Server::run`).
    pub fn start(engine: Arc<Engine>) -> io::Result<Running> {
        let server = Server::bind("127.0.0.1:0", engine)?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running { addr, thread })
    }

    /// Asks the server to shut down and waits until its loop and every
    /// connection thread have ended.
    pub fn stop(running: Running) -> io::Result<()> {
        let mut client = super::client::connect(&running.addr)?;
        let reply = client.call(&cqfit_engine::Request::Shutdown)?;
        drop(client);
        let joined = running
            .thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        joined?;
        if reply.is_ok() {
            Ok(())
        } else {
            Err(io::Error::other(format!("shutdown refused: {reply:?}")))
        }
    }
}

/// `cqfit-engine` client.
pub mod client {
    use cqfit_engine::{Client, Request, Response};
    use std::io;

    /// Connects a client with no per-call deadline: a large fit may take
    /// longer than any fixed bound.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let mut client = Client::connect_with_retry(addr, 5)?;
        client.set_call_timeout(None);
        Ok(client)
    }

    /// Sends one burst: a single request with `call`, more with
    /// `call_pipelined`.
    pub fn send(client: &mut Client, requests: &[Request]) -> io::Result<Vec<Response>> {
        match requests {
            [request] => client.call(request).map(|r| vec![r]),
            _ => client.call_pipelined(requests),
        }
    }

    /// `(retries, reconnects)` so far, from the client's own registry.
    pub fn counters(client: &Client) -> (u64, u64) {
        let registry = client.registry();
        (
            registry.client_retries.get(),
            registry.client_reconnects.get(),
        )
    }
}

/// `cqfit::incremental`: the maintained fitting state of one workspace.
pub mod fit {
    use cqfit::incremental::IncrementalFitting;
    use cqfit_data::{Example, Schema};
    use std::sync::Arc;

    /// An empty workspace.
    pub fn new_state(schema: Arc<Schema>, arity: usize) -> IncrementalFitting {
        IncrementalFitting::new(schema, arity)
    }

    /// Adds an example (a positive extends the maintained product).
    pub fn add(state: &mut IncrementalFitting, positive: bool, example: Example) -> u64 {
        let added = if positive {
            state.add_positive(example)
        } else {
            state.add_negative(example)
        };
        added.expect("generated examples match the workspace schema")
    }

    /// Removes an example by id; reports whether it existed.
    pub fn remove(state: &mut IncrementalFitting, positive: bool, id: u64) -> bool {
        if positive {
            state.remove_positive(id)
        } else {
            state.remove_negative(id)
        }
    }

    /// The maintained product, rebuilt first if a removal invalidated it.
    pub fn product(state: &mut IncrementalFitting) -> &Example {
        state.product().expect("product of valid examples")
    }

    /// The positives (or negatives), in id order.
    pub fn examples(state: &IncrementalFitting, positive: bool) -> Vec<&Example> {
        if positive {
            state.positives().map(|(_, e)| e).collect()
        } else {
            state.negatives().map(|(_, e)| e).collect()
        }
    }

    /// The mutation counter the engine's memo keys on.
    pub fn revision(state: &IncrementalFitting) -> u64 {
        state.revision()
    }

    /// Size and rendering of the canonical CQ of a data example.
    pub fn cq_of(e: &Example) -> (usize, String) {
        let q = cqfit_query::Cq::from_example(e).expect("data example");
        (q.size(), q.to_string())
    }

    /// Size and rendering of the UCQ of the examples.
    pub fn ucq_of(examples: &[Example]) -> (usize, String) {
        let q = cqfit_query::Ucq::from_examples(examples).expect("valid examples");
        (q.size(), q.to_string())
    }
}

/// `cqfit_hom`: product, core and hom search, plus the `HomCache`.
pub mod hom {
    use cqfit_data::Example;
    use cqfit_hom::{find_homomorphism_with, HomCache, HomConfig, HomSearchStats};
    use std::sync::Arc;

    /// A fresh, empty cache.
    pub fn fresh_cache() -> HomCache {
        HomCache::new()
    }

    /// The core of `e`, through the cache; the flag tells whether it was
    /// computed (a cache miss).
    pub fn core(cache: &HomCache, e: &Example) -> (Arc<Example>, bool) {
        let misses = cache.registry().core_misses.get();
        let core = cache.core_of(e);
        (core, cache.registry().core_misses.get() > misses)
    }

    /// Does some pair admit a homomorphism?  The cached batch check the
    /// fitting entry points make, worker pool and early exit included;
    /// also returns how many searches missed the cache.
    pub fn any_hom_exists(cache: &HomCache, pairs: &[(&Example, &Example)]) -> (bool, u64) {
        let misses = cache.registry().hom_misses.get();
        let found = cache.any_hom_exists(pairs);
        (found, cache.registry().hom_misses.get() - misses)
    }

    /// One uncached search of the pair, with its effort.
    pub fn search(src: &Example, dst: &Example) -> (bool, HomSearchStats) {
        let mut stats = HomSearchStats::default();
        let found = find_homomorphism_with(src, dst, &HomConfig::default(), &mut stats)
            .expect("unlimited search cannot exhaust its budget");
        (found.is_some(), stats)
    }

    /// `(values, facts)` of an example.
    pub fn size(e: &Example) -> (usize, usize) {
        (e.instance().num_values(), e.instance().num_facts())
    }
}

/// `HomCache` statistics of a live engine.
pub mod cache {
    use cqfit_engine::Engine;
    use cqfit_hom::CacheStats;

    /// The engine cache's counters (zeroes when caching is off).
    pub fn stats(engine: &Engine) -> CacheStats {
        engine.cache().map(|c| c.stats()).unwrap_or_default()
    }
}

/// `cqfit-store`: the write-ahead logs.
pub mod store {
    use cqfit_data::Schema;
    use cqfit_store::{LogRecord, Store, StoreConfig, StoreError, WorkspaceSnapshot};
    use std::path::Path;

    /// Opens (or creates) a store in `dir` with fsync on.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        Store::open(StoreConfig::new(dir))
    }

    /// Creates a workspace log.
    pub fn create(store: &Store, name: &str, schema: &Schema) -> Result<(), StoreError> {
        store.create_workspace(name, schema, 0)
    }

    /// Appends one record and waits for its covering fsync; `pre_state`
    /// is asked for only when the log is due for compaction.
    pub fn append(
        store: &Store,
        name: &str,
        record: &LogRecord,
        pre_state: impl FnOnce() -> WorkspaceSnapshot,
    ) -> Result<(), StoreError> {
        store.append(name, record, pre_state)
    }

    /// Drops a workspace log.
    pub fn drop_log(store: &Store, name: &str) -> Result<bool, StoreError> {
        store.drop_workspace(name)
    }

    /// Group-commit fsyncs performed so far.
    pub fn fsyncs(store: &Store) -> u64 {
        store.registry().store_fsync_ns.count()
    }

    /// Encoded size of a record in the log.
    pub fn record_bytes(record: &LogRecord) -> usize {
        cqfit_store::record::encode_record(record).len()
    }
}
