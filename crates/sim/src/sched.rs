//! The deterministic scheduler: N tasks on real threads, exactly one
//! running at a time, with seeded switch decisions at
//! [`cqfit_env::Env::yield_point`]s.
//!
//! Each task runs exclusively between yield points, so `std` mutexes
//! inside the code under test are never contended *between registered
//! tasks* — which is what makes yielding safe under the call discipline
//! documented in `cqfit-env` (never yield while holding a lock another
//! registered task can block on).  Tasks register through
//! [`SimScheduler::spawn`] — the simulated [`cqfit_env::Env::spawn`] —
//! either up front ([`SimScheduler::run`]) or from a running task, as
//! the server does for each connection.  Threads the code under test
//! starts with `std::thread` itself (e.g. the hom crate's scoped worker
//! pool) are not registered and run freely inside their spawning task's
//! time slice.
//!
//! The switch sequence derives entirely from the seed, so a failing
//! interleaving replays exactly from its seed.

use crate::splitmix;
use cqfit_env::{panic_message, TaskHandle};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Parked, eligible to be scheduled.
    Ready,
    /// The single task currently executing.
    Running,
    /// Parked in [`TaskHandle::join`] until the given task is done.
    Joining(usize),
    /// Finished (normally or by panic).
    Done,
}

#[derive(Debug, Default)]
struct Shared {
    states: Vec<TaskState>,
    current: Option<usize>,
    rng: u64,
    /// `(task id, message)` of every task that panicked, in completion
    /// order.
    panics: Vec<(usize, String)>,
}

impl Shared {
    /// Seeded pick among the ready tasks (possibly the one that just
    /// yielded).  `current` becomes `None` when nothing is ready.
    fn pick_next(&mut self) {
        let ready: Vec<usize> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TaskState::Ready)
            .map(|(i, _)| i)
            .collect();
        self.current = match ready.len() {
            0 => None,
            n => Some(ready[(splitmix(&mut self.rng) as usize) % n]),
        };
    }
}

thread_local! {
    /// `(scheduler identity, task id)` of the registered task running on
    /// this thread, if any.  Unregistered threads (the engine's own
    /// worker pools, the test runner) see `None` and never yield.
    static CURRENT_TASK: RefCell<Option<(usize, usize)>> = const { RefCell::new(None) };
}

/// The deterministic task scheduler.  Create one per simulated
/// execution, hand it to [`crate::SimEnv`], and drive tasks through
/// [`SimScheduler::run`].
#[derive(Debug)]
pub struct SimScheduler {
    shared: Mutex<Shared>,
    cv: Condvar,
    /// The OS threads behind every registered task, joined by `run`.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl SimScheduler {
    /// A scheduler whose every switch decision derives from `seed`.
    pub fn new(seed: u64) -> SimScheduler {
        SimScheduler {
            shared: Mutex::new(Shared {
                rng: seed ^ 0x5C4E_D01E,
                ..Shared::default()
            }),
            cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        }
    }

    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("scheduler state")
    }

    /// The id of the calling thread's task, if it is registered with
    /// *this* scheduler.
    fn registered_id(self: &Arc<Self>) -> Option<usize> {
        let me = self.identity();
        CURRENT_TASK.with(|c| {
            c.borrow()
                .as_ref()
                .and_then(|&(owner, id)| (owner == me).then_some(id))
        })
    }

    /// Spawns each task, then waits until every registered task —
    /// including those the tasks spawn themselves — has finished.
    /// Panics inside tasks are caught (so the run always drains) and
    /// returned as messages.
    ///
    /// # Errors
    /// The panic messages of every task that panicked, in completion
    /// order.
    ///
    /// # Panics
    /// When every unfinished task is parked in a join (a join cycle).
    pub fn run(self: &Arc<Self>, tasks: Vec<Box<dyn FnOnce() + Send>>) -> Result<(), Vec<String>> {
        for task in tasks {
            self.spawn(task);
        }
        let mut sh = self.lock();
        // Every task parks in `wait_turn` until this first pick.
        if sh.current.is_none() {
            sh.pick_next();
            self.cv.notify_all();
        }
        while !sh.states.iter().all(|s| *s == TaskState::Done) {
            assert!(
                sh.current.is_some(),
                "simulated deadlock: every unfinished task waits in a join"
            );
            sh = self.cv.wait(sh).expect("scheduler state");
        }
        let panics: Vec<String> = std::mem::take(&mut sh.panics)
            .into_iter()
            .map(|(id, msg)| format!("task {id}: {msg}"))
            .collect();
        drop(sh);
        let threads = std::mem::take(&mut *self.threads.lock().expect("task threads"));
        for thread in threads {
            let _ = thread.join();
        }
        if panics.is_empty() {
            Ok(())
        } else {
            Err(panics)
        }
    }

    /// Registers `task`, ready to be picked at the next switch decision.
    /// Its thread parks until then, so a task spawned outside a running
    /// task first runs under [`SimScheduler::run`].  Called from a
    /// running task, the caller keeps running: a spawn is not a switch
    /// point.
    pub fn spawn(self: &Arc<Self>, task: Box<dyn FnOnce() + Send>) -> SimTask {
        let id = {
            let mut sh = self.lock();
            sh.states.push(TaskState::Ready);
            sh.states.len() - 1
        };
        let sched = Arc::clone(self);
        let thread = std::thread::spawn(move || {
            CURRENT_TASK.with(|c| *c.borrow_mut() = Some((sched.identity(), id)));
            sched.wait_turn(id);
            let panicked = catch_unwind(AssertUnwindSafe(task))
                .err()
                .map(|payload| panic_message(payload.as_ref()));
            CURRENT_TASK.with(|c| *c.borrow_mut() = None);
            sched.finish(id, panicked);
        });
        self.threads.lock().expect("task threads").push(thread);
        SimTask {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Called from [`cqfit_env::Env::yield_point`]: if the calling thread
    /// is a task registered with *this* scheduler, park it and let the
    /// seeded pick decide who runs next.  No-op on unregistered threads.
    pub fn maybe_yield(self: &Arc<Self>) {
        if let Some(id) = self.registered_id() {
            self.park(self.lock(), id, TaskState::Ready);
        }
    }

    fn wait_turn(&self, id: usize) {
        let mut sh = self.lock();
        while sh.current != Some(id) {
            sh = self.cv.wait(sh).expect("scheduler state");
        }
        sh.states[id] = TaskState::Running;
    }

    /// Parks the running task `id` in `state` and waits until the seeded
    /// pick chooses it again.
    fn park(&self, mut sh: MutexGuard<'_, Shared>, id: usize, state: TaskState) {
        debug_assert_eq!(sh.current, Some(id), "park from a descheduled task");
        sh.states[id] = state;
        sh.pick_next();
        if sh.current != Some(id) {
            self.cv.notify_all();
            while sh.current != Some(id) {
                sh = self.cv.wait(sh).expect("scheduler state");
            }
        }
        sh.states[id] = TaskState::Running;
    }

    fn join(self: &Arc<Self>, target: usize) -> Result<(), String> {
        let mut sh = self.lock();
        if sh.states[target] != TaskState::Done {
            match self.registered_id() {
                Some(me) => {
                    self.park(sh, me, TaskState::Joining(target));
                    sh = self.lock();
                }
                None => {
                    while sh.states[target] != TaskState::Done {
                        sh = self.cv.wait(sh).expect("scheduler state");
                    }
                }
            }
        }
        match sh.panics.iter().find(|(id, _)| *id == target) {
            Some((_, msg)) => Err(msg.clone()),
            None => Ok(()),
        }
    }

    fn finish(&self, id: usize, panicked: Option<String>) {
        let mut sh = self.lock();
        sh.states[id] = TaskState::Done;
        if let Some(msg) = panicked {
            sh.panics.push((id, msg));
        }
        for state in &mut sh.states {
            if *state == TaskState::Joining(id) {
                *state = TaskState::Ready;
            }
        }
        if sh.current == Some(id) {
            sh.pick_next();
        }
        drop(sh);
        self.cv.notify_all();
    }
}

/// A task registered by [`SimScheduler::spawn`].
#[derive(Debug)]
pub struct SimTask {
    sched: Arc<SimScheduler>,
    id: usize,
}

impl TaskHandle for SimTask {
    fn is_finished(&self) -> bool {
        self.sched.lock().states[self.id] == TaskState::Done
    }

    /// From a registered task, parks it until the joined task is done;
    /// from any other thread, blocks.
    fn join(self: Box<Self>) -> Result<(), String> {
        self.sched.join(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs three tasks that interleave at explicit yields and records
    /// the event order; the order must be seed-deterministic and must
    /// differ between (at least some) seeds.
    fn trace(seed: u64) -> Vec<u64> {
        let sched = Arc::new(SimScheduler::new(seed));
        let events = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..3u64)
            .map(|task| {
                let sched = Arc::clone(&sched);
                let events = Arc::clone(&events);
                Box::new(move || {
                    for step in 0..4u64 {
                        events.lock().unwrap().push(task * 10 + step);
                        sched.maybe_yield();
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        sched.run(tasks).expect("no panics");
        Arc::try_unwrap(events).unwrap().into_inner().unwrap()
    }

    #[test]
    fn interleavings_are_seed_deterministic_and_seed_sensitive() {
        let a1 = trace(7);
        let a2 = trace(7);
        assert_eq!(a1, a2, "same seed, same interleaving");
        assert_eq!(a1.len(), 12, "every step of every task ran");
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]);
        // Per-task order is preserved even though tasks interleave.
        for task in 0..3u64 {
            let steps: Vec<u64> = a1.iter().filter(|e| *e / 10 == task).copied().collect();
            assert_eq!(
                steps,
                vec![task * 10, task * 10 + 1, task * 10 + 2, task * 10 + 3]
            );
        }
        assert!(
            (0..32).any(|s| trace(s) != a1),
            "some seed must produce a different interleaving"
        );
    }

    #[test]
    fn unregistered_threads_pass_through_yields() {
        let sched = Arc::new(SimScheduler::new(1));
        sched.maybe_yield(); // test thread is unregistered: must not hang
        let inner_ran = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![{
            let sched = Arc::clone(&sched);
            let inner_ran = Arc::clone(&inner_ran);
            Box::new(move || {
                // A thread the task spawns itself is unregistered and
                // runs freely within the task's slice.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        sched.maybe_yield();
                        inner_ran.fetch_add(1, Ordering::SeqCst);
                    });
                });
                sched.maybe_yield();
                inner_ran.fetch_add(10, Ordering::SeqCst);
            })
        }];
        sched.run(tasks).expect("no panics");
        assert_eq!(inner_ran.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn a_panicking_task_is_reported_and_does_not_hang_the_run() {
        let sched = Arc::new(SimScheduler::new(3));
        let survivor = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| panic!("boom in task")), {
            let sched = Arc::clone(&sched);
            let survivor = Arc::clone(&survivor);
            Box::new(move || {
                sched.maybe_yield();
                survivor.store(1, Ordering::SeqCst);
            })
        }];
        let err = sched.run(tasks).expect_err("panic must surface");
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("boom in task"), "got {err:?}");
        assert_eq!(survivor.load(Ordering::SeqCst), 1, "other task completed");
    }

    /// A task spawned from a running task is scheduled like the rest; a
    /// join from a task parks it until the joined task is done; a
    /// spawned task's panic is reported by `run` and by its join.
    #[test]
    fn spawned_tasks_are_scheduled_joined_and_reported() {
        let run = |seed: u64| {
            let sched = Arc::new(SimScheduler::new(seed));
            let events = Arc::new(Mutex::new(Vec::new()));
            let parent = {
                let sched = Arc::clone(&sched);
                let events = Arc::clone(&events);
                Box::new(move || {
                    let child = {
                        let sched2 = Arc::clone(&sched);
                        let events = Arc::clone(&events);
                        sched.spawn(Box::new(move || {
                            for step in 0..3 {
                                events.lock().unwrap().push(format!("child {step}"));
                                sched2.maybe_yield();
                            }
                        }))
                    };
                    let failing = sched.spawn(Box::new(|| panic!("boom in spawned task")));
                    events.lock().unwrap().push("parent spawned".to_string());
                    assert_eq!(Box::new(child).join(), Ok(()));
                    events.lock().unwrap().push("parent joined".to_string());
                    assert_eq!(
                        Box::new(failing).join(),
                        Err("boom in spawned task".to_string())
                    );
                }) as Box<dyn FnOnce() + Send>
            };
            let err = sched.run(vec![parent]).expect_err("the panic surfaces");
            assert_eq!(err, vec!["task 2: boom in spawned task".to_string()]);
            Arc::try_unwrap(events).unwrap().into_inner().unwrap()
        };
        let events = run(5);
        assert_eq!(events.len(), 5, "{events:?}");
        assert_eq!(events.last().map(String::as_str), Some("parent joined"));
        assert_eq!(run(5), events, "same seed, same interleaving");
    }
}
