//! # cqfit-env
//!
//! The injectable **environment** behind every effectful operation in the
//! cqfit stack: filesystem access, networking, time, randomness, and
//! scheduler yield points.  Production code holds an [`Env`] trait object
//! and never calls `std::fs` / `std::net` / `Instant::now` directly; the
//! default [`RealEnv`] forwards straight to the OS, while `cqfit-sim`
//! substitutes a simulated filesystem, a simulated network, and a
//! deterministic scheduler to explore crash, fault, and interleaving
//! state spaces (madsim / FoundationDB style).
//!
//! The filesystem surface is deliberately the *store's* footprint, not a
//! general VFS: append-mode opens, `sync_data`/`sync_all`, `set_len`
//! truncation, rename, unlink, and directory sync — exactly the
//! operations whose durability semantics the write-ahead log depends on.
//! The network surface ([`Net`], [`NetListener`], [`NetConn`]) is likewise
//! the *server's* footprint: bind/accept/connect plus byte-stream reads
//! with an optional timeout (the shutdown-poll and per-request-deadline
//! primitives), not a general sockets API.
//!
//! ## Yield points
//!
//! [`Env::yield_point`] is a no-op in production.  Under simulation it is
//! where the deterministic scheduler may switch between registered tasks.
//! Call discipline: a yield point must only be placed where the calling
//! thread holds **no lock** that another registered task can block on —
//! the simulated scheduler runs one registered task at a time, so
//! yielding while holding such a lock would deadlock the simulation.
//!
//! ## Spawned tasks
//!
//! [`Env::spawn`] starts a long-lived task (a server's connection
//! handler, a metrics endpoint) and returns a [`TaskHandle`].  In
//! production it is `std::thread::spawn`.  Under simulation the task is
//! registered with the deterministic scheduler, which then decides
//! every switch between it and the other registered tasks.
//!
//! Call discipline: a spawned task must never block on an OS primitive
//! (a mutex, condvar, channel or barrier) held or fed by another
//! registered task.  Only one registered task runs at a time, so the
//! holder would never be scheduled to release it.  A task waits for
//! another through [`TaskHandle::join`], which yields to the scheduler
//! until the joined task is done, or by polling at yield points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// How a file is opened by [`Fs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Create if missing, truncate if present, writable cursor at 0.
    CreateTruncate,
    /// Open existing for appending: every write lands at EOF *by mode*
    /// (`O_APPEND`), regardless of any earlier truncation.
    Append,
    /// Open existing for writing without truncation (used to `set_len`).
    Write,
}

/// An open file handle.
///
/// Handles follow POSIX inode semantics: a handle obtained before a
/// rename or unlink keeps addressing the original inode — which is
/// exactly the hazard the store's compaction reopen path guards against,
/// and which simulated filesystems must model faithfully.
pub trait FsFile: Send + fmt::Debug {
    /// Writes the whole buffer (at EOF for [`OpenMode::Append`] handles).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes userspace buffers (no durability guarantee).
    fn flush(&mut self) -> io::Result<()>;
    /// Makes the file's *data* durable (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Makes data and metadata durable (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem operations the durability layer is built from.
pub trait Fs: Send + Sync + fmt::Debug {
    /// Opens `path` in the given mode.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn FsFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Renames `from` onto `to` (atomic replacement within a directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the files in a directory, sorted by path (deterministic
    /// order regardless of the backing filesystem).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Syncs the directory *containing* `path`, making a create, rename,
    /// or unlink of that entry durable.  Best-effort on platforms where
    /// directories cannot be opened.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

/// Time sources.  Both readings are [`Duration`]s rather than `Instant`/
/// `SystemTime` so simulated clocks can fabricate values freely.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Monotonic time since an arbitrary fixed origin (process start for
    /// the real clock).  Never goes backwards.
    fn monotonic(&self) -> Duration;
    /// Wall-clock time since the UNIX epoch.
    fn wall_unix(&self) -> Duration;
    /// Blocks the caller for `d` of this clock's time.  The real clock
    /// parks the thread; [`ManualClock`] just advances itself, which is
    /// what lets retry backoff run instantly (and deterministically)
    /// under simulation.
    fn sleep(&self, d: Duration);
}

/// One endpoint of an established byte-stream connection.
///
/// Reads take an optional *timeout* instead of relying on socket-level
/// configuration: both the server's shutdown-flag poll and the client's
/// per-request deadline are expressed as bounded reads, measured against
/// the environment's [`Clock`] by simulated implementations.
pub trait NetConn: Send + fmt::Debug {
    /// Reads into `buf`, blocking until at least one byte is available
    /// (returning how many were read), the peer closes (`Ok(0)`), or
    /// `timeout` passes (`ErrorKind::TimedOut` / `WouldBlock`).
    /// `timeout: None` blocks indefinitely.
    fn read(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize>;
    /// Writes the whole buffer.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Closes the connection; the peer observes EOF after draining any
    /// bytes already in flight.
    fn shutdown(&mut self) -> io::Result<()>;
    /// The peer's address, for diagnostics.
    fn peer_addr(&self) -> String;
}

/// A bound, listening endpoint.
pub trait NetListener: Send + Sync + fmt::Debug {
    /// Blocks until the next incoming connection.
    fn accept(&self) -> io::Result<Box<dyn NetConn>>;
    /// The bound address (resolves ephemeral ports).
    fn local_addr(&self) -> io::Result<String>;
}

/// The network operations the serving layer is built from.
///
/// Addresses are plain strings: `HOST:PORT` for the real network,
/// arbitrary names (e.g. `sim:engine`) for simulated ones.
pub trait Net: Send + Sync + fmt::Debug {
    /// Binds a listener on `addr` (port `0` picks an ephemeral port on
    /// the real network).
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>>;
    /// Connects to a listener at `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>>;
}

/// The full environment: filesystem + network + clock + rng + yields.
pub trait Env: Send + Sync + fmt::Debug {
    /// The filesystem.
    fn fs(&self) -> &dyn Fs;
    /// The clock.
    fn clock(&self) -> &dyn Clock;
    /// The network.  Defaults to the real one so environments assembled
    /// for filesystem or clock injection need not mention it.
    fn net(&self) -> &dyn Net {
        real_net()
    }
    /// A scheduler yield point (no-op outside simulation).  `label`
    /// identifies the call site for trace output.  See the crate docs for
    /// the no-held-locks call discipline.
    fn yield_point(&self, label: &str) {
        let _ = label;
    }
    /// One draw from the environment's random source.
    fn rng_u64(&self) -> u64;
    /// Starts `task` on a thread of its own.  Defaults to
    /// `std::thread::spawn`; a simulating environment registers the task
    /// with its scheduler instead.  See the crate docs for the call
    /// discipline a spawned task must keep.
    fn spawn(&self, task: Box<dyn FnOnce() + Send>) -> Box<dyn TaskHandle> {
        Box::new(std::thread::spawn(task))
    }
}

/// A task started by [`Env::spawn`].
pub trait TaskHandle: Send {
    /// Whether the task has finished, normally or by panic.
    fn is_finished(&self) -> bool;
    /// Waits until the task has finished.
    ///
    /// # Errors
    /// The task's panic message, if it panicked.
    fn join(self: Box<Self>) -> Result<(), String>;
}

impl TaskHandle for std::thread::JoinHandle<()> {
    fn is_finished(&self) -> bool {
        std::thread::JoinHandle::is_finished(self)
    }

    fn join(self: Box<Self>) -> Result<(), String> {
        (*self)
            .join()
            .map_err(|payload| panic_message(payload.as_ref()))
    }
}

/// The message carried by a caught panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One step of the splitmix64 sequence held in `state`.
fn splitmix64(state: &AtomicU64) -> u64 {
    let mut z = state
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A real `std::fs::File` behind the [`FsFile`] trait.
#[derive(Debug)]
struct RealFile(File);

impl FsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

/// The production environment: straight pass-through to `std::fs` and the
/// OS clocks, no-op yield points.  The only cost over direct calls is one
/// vtable dispatch per operation — invisible next to a syscall (it
/// measured <2% on the WAL append/replay paths in `BENCH_pr6.json`).
#[derive(Debug, Default)]
pub struct RealEnv {
    rng: AtomicU64,
}

impl RealEnv {
    /// A fresh real environment (rng seeded from the wall clock).
    pub fn new() -> RealEnv {
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
            .unwrap_or(0x5EED)
            ^ u64::from(std::process::id());
        RealEnv {
            rng: AtomicU64::new(seed),
        }
    }

    /// A fresh real environment as an `Arc<dyn Env>` — the form every
    /// constructor taking an environment wants.
    pub fn arc() -> Arc<dyn Env> {
        Arc::new(RealEnv::new())
    }
}

impl Fs for RealEnv {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn FsFile>> {
        let mut opts = OpenOptions::new();
        match mode {
            OpenMode::CreateTruncate => opts.create(true).write(true).truncate(true),
            OpenMode::Append => opts.append(true),
            OpenMode::Write => opts.write(true),
        };
        Ok(Box::new(RealFile(opts.open(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                dir.sync_all()?;
            }
        }
        Ok(())
    }
}

/// Monotonic origin shared by every [`RealEnv`], so durations from
/// different instances compare meaningfully.
fn monotonic_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

impl Clock for RealEnv {
    fn monotonic(&self) -> Duration {
        monotonic_origin().elapsed()
    }

    fn wall_unix(&self) -> Duration {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

impl Env for RealEnv {
    fn fs(&self) -> &dyn Fs {
        self
    }
    fn clock(&self) -> &dyn Clock {
        self
    }
    fn rng_u64(&self) -> u64 {
        splitmix64(&self.rng)
    }
}

/// The production network: straight pass-through to `std::net`.  Read
/// timeouts map onto `set_read_timeout`, cached so repeated reads with
/// the same timeout cost no extra syscall.
#[derive(Debug, Default)]
pub struct RealNet;

/// The shared production network instance — what [`Env::net`] returns by
/// default.
pub fn real_net() -> &'static dyn Net {
    static NET: RealNet = RealNet;
    &NET
}

#[derive(Debug)]
struct RealConn {
    stream: std::net::TcpStream,
    /// The read timeout currently applied to the socket.
    applied: Option<Duration>,
    applied_set: bool,
}

impl RealConn {
    fn new(stream: std::net::TcpStream) -> RealConn {
        RealConn {
            stream,
            applied: None,
            applied_set: false,
        }
    }
}

impl NetConn for RealConn {
    fn read(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        // A zero timeout is invalid at the socket level; it means the
        // deadline already passed.
        if timeout == Some(Duration::ZERO) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline passed",
            ));
        }
        if !self.applied_set || self.applied != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.applied = timeout;
            self.applied_set = true;
        }
        io::Read::read(&mut self.stream, buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.stream, buf)
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Both)
    }

    fn peer_addr(&self) -> String {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    }
}

#[derive(Debug)]
struct RealListener(std::net::TcpListener);

impl NetListener for RealListener {
    fn accept(&self) -> io::Result<Box<dyn NetConn>> {
        let (stream, _) = self.0.accept()?;
        Ok(Box::new(RealConn::new(stream)))
    }

    fn local_addr(&self) -> io::Result<String> {
        self.0.local_addr().map(|a| a.to_string())
    }
}

impl Net for RealNet {
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>> {
        Ok(Box::new(RealListener(std::net::TcpListener::bind(addr)?)))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>> {
        Ok(Box::new(RealConn::new(std::net::TcpStream::connect(addr)?)))
    }
}

/// A hand-cranked clock for tests: time moves only when told to (plus an
/// optional fixed auto-tick per reading, for code that polls until a
/// deadline).  Wall time is monotonic time plus a fixed epoch offset.
#[derive(Debug)]
pub struct ManualClock {
    nanos: AtomicU64,
    auto_tick_nanos: u64,
    epoch_offset: Duration,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> ManualClock {
        ManualClock {
            nanos: AtomicU64::new(0),
            auto_tick_nanos: 0,
            epoch_offset: Duration::from_secs(1_700_000_000),
        }
    }

    /// A clock that advances itself by `tick` on every reading — lets
    /// poll-until-deadline loops terminate without anyone calling
    /// [`ManualClock::advance`].
    pub fn with_auto_tick(tick: Duration) -> ManualClock {
        ManualClock {
            auto_tick_nanos: tick.as_nanos() as u64,
            ..ManualClock::new()
        }
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn monotonic(&self) -> Duration {
        let nanos = self
            .nanos
            .fetch_add(self.auto_tick_nanos, Ordering::SeqCst)
            .wrapping_add(self.auto_tick_nanos);
        Duration::from_nanos(nanos)
    }

    fn wall_unix(&self) -> Duration {
        self.epoch_offset + self.monotonic()
    }

    fn sleep(&self, d: Duration) {
        // Sleeping *is* advancing: backoff and retry delays complete
        // instantly in simulated time.
        self.advance(d);
    }
}

/// An environment assembled from independently chosen parts — e.g. the
/// real filesystem with a [`ManualClock`] for shutdown-timeout tests, or
/// a simulated filesystem with the real clock.  Yield points are no-ops;
/// environments that schedule (like `cqfit-sim`'s) implement [`Env`]
/// themselves.
#[derive(Debug)]
pub struct PartsEnv {
    fs: Arc<dyn Fs>,
    clock: Arc<dyn Clock>,
    rng: AtomicU64,
}

impl PartsEnv {
    /// Assembles an environment from a filesystem, a clock, and an rng
    /// seed.
    pub fn new(fs: Arc<dyn Fs>, clock: Arc<dyn Clock>, rng_seed: u64) -> PartsEnv {
        PartsEnv {
            fs,
            clock,
            rng: AtomicU64::new(rng_seed),
        }
    }
}

impl Env for PartsEnv {
    fn fs(&self) -> &dyn Fs {
        self.fs.as_ref()
    }
    fn clock(&self) -> &dyn Clock {
        self.clock.as_ref()
    }
    fn rng_u64(&self) -> u64 {
        splitmix64(&self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqfit_env_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn real_env_round_trips_files() {
        let env = RealEnv::new();
        let dir = tmp_dir("roundtrip");
        env.create_dir_all(&dir).unwrap();
        let path = dir.join("a.txt");
        let mut f = env.open(&path, OpenMode::CreateTruncate).unwrap();
        f.write_all(b"hello ").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut f = env.open(&path, OpenMode::Append).unwrap();
        f.write_all(b"world").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(env.read(&path).unwrap(), b"hello world");
        let renamed = dir.join("b.txt");
        env.rename(&path, &renamed).unwrap();
        env.sync_parent_dir(&renamed).unwrap();
        assert_eq!(env.read_dir(&dir).unwrap(), vec![renamed.clone()]);
        let mut f = env.open(&renamed, OpenMode::Write).unwrap();
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(env.read(&renamed).unwrap(), b"hello");
        env.remove_file(&renamed).unwrap();
        assert!(env.read_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_clock_is_monotonic_and_rng_varies() {
        let env = RealEnv::new();
        let a = env.clock().monotonic();
        let b = env.clock().monotonic();
        assert!(b >= a);
        assert!(env.clock().wall_unix().as_secs() > 1_600_000_000);
        let x = env.rng_u64();
        let y = env.rng_u64();
        assert_ne!(x, y, "consecutive splitmix64 draws collide");
        env.yield_point("test"); // the default no-op
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.monotonic(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.monotonic(), Duration::from_millis(250));
        assert_eq!(
            clock.wall_unix(),
            Duration::from_secs(1_700_000_000) + Duration::from_millis(250)
        );

        let ticking = ManualClock::with_auto_tick(Duration::from_millis(10));
        assert_eq!(ticking.monotonic(), Duration::from_millis(10));
        assert_eq!(ticking.monotonic(), Duration::from_millis(20));
    }

    #[test]
    fn real_net_round_trips_bytes_with_timeouts() {
        let net = real_net();
        let listener = net.bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 16];
            let n = conn.read(&mut buf, None).unwrap();
            conn.write_all(&buf[..n]).unwrap();
        });
        let mut client = net.connect(&addr).unwrap();
        // Nothing sent yet: a bounded read must time out, not hang.
        let mut buf = [0u8; 16];
        let err = client
            .read(&mut buf, Some(Duration::from_millis(20)))
            .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "got {err:?}"
        );
        // A zero timeout reports expiry without a syscall.
        let err = client.read(&mut buf, Some(Duration::ZERO)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        client.write_all(b"echo").unwrap();
        let n = client.read(&mut buf, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&buf[..n], b"echo");
        assert!(!client.peer_addr().is_empty());
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn manual_clock_sleep_advances_instantly() {
        let clock = ManualClock::new();
        let before = std::time::Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert!(before.elapsed() < Duration::from_secs(1), "no real sleep");
        assert_eq!(clock.monotonic(), Duration::from_secs(3600));
    }

    #[test]
    fn default_spawn_runs_on_a_thread_and_reports_panics() {
        let env = RealEnv::new();
        let ran = Arc::new(AtomicU64::new(0));
        let task = {
            let ran = Arc::clone(&ran);
            env.spawn(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }))
        };
        assert_eq!(task.join(), Ok(()));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        let failing = env.spawn(Box::new(|| panic!("boom")));
        while !failing.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(failing.join(), Err("boom".to_string()));
    }

    #[test]
    fn parts_env_composes() {
        let env = PartsEnv::new(Arc::new(RealEnv::new()), Arc::new(ManualClock::new()), 42);
        assert_eq!(env.clock().monotonic(), Duration::ZERO);
        let a = env.rng_u64();
        let env2 = PartsEnv::new(Arc::new(RealEnv::new()), Arc::new(ManualClock::new()), 42);
        assert_eq!(a, env2.rng_u64(), "same seed, same stream");
    }
}
