//! Worker-pool job engine.
//!
//! A fixed pool of worker threads blocks on one shared injector channel;
//! an idle worker sleeps in `recv` until a job arrives or the last
//! sender goes away.
//!
//! Per-job policy:
//! - **Timeout** — every job carries a deadline. A job popped past its
//!   deadline is retried in place with a fresh deadline while it has
//!   retry budget, then fails with [`JobError::TimedOut`].
//! - **Panic isolation** — the job handler runs under `catch_unwind`; a
//!   panicking job consumes one retry instead of killing the worker, then
//!   fails with [`JobError::Panicked`].
//!
//! A retry runs on the worker that already holds the job, so it never
//! waits behind other queued work or for an idle worker to notice it.
//!
//! Shutdown is a graceful drain: dropping the injector lets every worker
//! finish the queued work (including its retries) before exiting.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};

use crate::metrics::Metrics;

/// Pool sizing and per-job policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (at least one).
    pub workers: usize,
    /// Budget per job attempt; a job popped past its deadline is retried
    /// or failed.
    pub job_timeout: Duration,
    /// How many times a job may be retried after a timeout or panic.
    pub max_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            job_timeout: Duration::from_secs(60),
            max_retries: 2,
        }
    }
}

/// Why a job failed terminally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job sat past its deadline on every attempt.
    TimedOut {
        /// Attempts consumed (initial try plus retries).
        attempts: u32,
    },
    /// The handler panicked on every attempt.
    Panicked {
        /// Attempts consumed.
        attempts: u32,
        /// Panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TimedOut { attempts } => {
                write!(f, "timed out after {attempts} attempt(s)")
            }
            JobError::Panicked { attempts, message } => {
                write!(f, "job panicked after {attempts} attempt(s): {message}")
            }
        }
    }
}

/// Terminal result of one job: the job itself plus its handler output or
/// the engine-level failure.
#[derive(Debug)]
pub struct JobOutcome<J, R> {
    /// The submitted job.
    pub job: J,
    /// Handler output, or why the engine gave up.
    pub result: Result<R, JobError>,
}

/// Awaitable handle to a submitted batch.
pub struct BatchHandle<J, R> {
    receiver: Receiver<JobOutcome<J, R>>,
    expected: usize,
}

impl<J, R> fmt::Debug for BatchHandle<J, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchHandle")
            .field("expected", &self.expected)
            .finish()
    }
}

impl<J, R> BatchHandle<J, R> {
    /// Number of outcomes this handle will deliver.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Blocks until every job in the batch reaches a terminal outcome.
    pub fn wait(self) -> Vec<JobOutcome<J, R>> {
        (0..self.expected)
            .map_while(|_| self.receiver.recv().ok())
            .collect()
    }
}

type Handler<J, R> = Arc<dyn Fn(&J) -> R + Send + Sync>;

struct Task<J, R> {
    job: J,
    attempts: u32,
    deadline: Instant,
    respond: Sender<JobOutcome<J, R>>,
}

/// Fixed worker pool over one shared queue, with per-job deadlines and
/// bounded retry.
pub struct Engine<J, R> {
    injector: Option<Sender<Task<J, R>>>,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    config: EngineConfig,
}

impl<J, R> fmt::Debug for Engine<J, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.handles.len())
            .field("config", &self.config)
            .finish()
    }
}

impl<J: Send + 'static, R: Send + 'static> Engine<J, R> {
    /// Spawns the worker pool. `handler` executes each job; it may panic —
    /// the engine absorbs it as a retryable failure.
    pub fn new(config: EngineConfig, metrics: Arc<Metrics>, handler: Handler<J, R>) -> Self {
        let workers = config.workers.max(1);
        let (injector_tx, injector_rx) = channel::unbounded::<Task<J, R>>();
        let handles = (0..workers)
            .map(|index| {
                let ctx = WorkerContext {
                    injector: injector_rx.clone(),
                    handler: handler.clone(),
                    metrics: metrics.clone(),
                    config: config.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("icomm-serve-worker-{index}"))
                    .spawn(move || ctx.run())
                    .expect("spawn worker thread")
            })
            .collect();
        drop(injector_rx);
        Engine {
            injector: Some(injector_tx),
            handles,
            metrics,
            config,
        }
    }

    /// Enqueues a batch of jobs. The returned handle delivers exactly one
    /// outcome per job (in completion order).
    pub fn submit_batch(&self, jobs: Vec<J>) -> BatchHandle<J, R> {
        let injector = self
            .injector
            .as_ref()
            .expect("engine injector alive until shutdown");
        let (tx, rx) = channel::unbounded();
        let expected = jobs.len();
        let deadline = Instant::now() + self.config.job_timeout;
        for job in jobs {
            self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            let sent = injector.send(Task {
                job,
                attempts: 0,
                deadline,
                respond: tx.clone(),
            });
            assert!(sent.is_ok(), "workers alive until shutdown");
        }
        BatchHandle {
            receiver: rx,
            expected,
        }
    }

    /// Drains the queue and joins every worker. All jobs already submitted
    /// (including retries they spawn) complete before this returns.
    pub fn shutdown(mut self) {
        self.injector.take();
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread exits cleanly");
        }
    }
}

impl<J, R> Drop for Engine<J, R> {
    fn drop(&mut self) {
        self.injector.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct WorkerContext<J, R> {
    injector: Receiver<Task<J, R>>,
    handler: Handler<J, R>,
    metrics: Arc<Metrics>,
    config: EngineConfig,
}

impl<J: Send + 'static, R: Send + 'static> WorkerContext<J, R> {
    /// Blocks on the injector until every sender is gone and the queue
    /// is empty — the drain.
    fn run(self) {
        while let Ok(task) = self.injector.recv() {
            self.execute(task);
        }
    }

    fn finish(&self, task: Task<J, R>, result: Result<R, JobError>) {
        self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if result.is_err() {
            self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
        let _ = task.respond.send(JobOutcome {
            job: task.job,
            result,
        });
    }

    /// Runs one task to its terminal outcome, retrying in place.
    fn execute(&self, mut task: Task<J, R>) {
        loop {
            // `None` when the attempt was past its deadline and never ran.
            let panic = if Instant::now() >= task.deadline {
                None
            } else {
                match catch_unwind(AssertUnwindSafe(|| (self.handler)(&task.job))) {
                    Ok(response) => return self.finish(task, Ok(response)),
                    Err(payload) => Some(payload),
                }
            };
            if task.attempts < self.config.max_retries {
                task.attempts += 1;
                task.deadline = Instant::now() + self.config.job_timeout;
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let attempts = task.attempts + 1;
            let error = match panic {
                None => {
                    self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    JobError::TimedOut { attempts }
                }
                Some(payload) => JobError::Panicked {
                    attempts,
                    message: panic_message(payload.as_ref()),
                },
            };
            return self.finish(task, Err(error));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn engine_with<F>(config: EngineConfig, f: F) -> (Engine<u64, u64>, Arc<Metrics>)
    where
        F: Fn(&u64) -> u64 + Send + Sync + 'static,
    {
        let metrics = Arc::new(Metrics::new());
        let engine = Engine::new(config, metrics.clone(), Arc::new(f));
        (engine, metrics)
    }

    #[test]
    fn batch_completes_with_every_outcome() {
        let (engine, metrics) = engine_with(EngineConfig::default(), |n| n * 2);
        let handle = engine.submit_batch((0..200).collect());
        let mut outcomes = handle.wait();
        assert_eq!(outcomes.len(), 200);
        outcomes.sort_by_key(|o| o.job);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.result, Ok(i as u64 * 2));
        }
        assert_eq!(metrics.snapshot().queue_depth, 0);
        engine.shutdown();
    }

    #[test]
    fn panicking_job_retries_then_fails() {
        let config = EngineConfig {
            workers: 2,
            max_retries: 2,
            ..EngineConfig::default()
        };
        let (engine, metrics) = engine_with(config, |_| panic!("boom"));
        let outcome = engine.submit_batch(vec![1]).wait().pop().unwrap();
        assert_eq!(
            outcome.result,
            Err(JobError::Panicked {
                attempts: 3,
                message: "boom".to_string()
            })
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.failed, 1);
        engine.shutdown();
    }

    #[test]
    fn panic_then_success_consumes_one_retry() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let (engine, metrics) = engine_with(EngineConfig::default(), move |n| {
            if calls2.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            *n + 1
        });
        let outcome = engine.submit_batch(vec![9]).wait().pop().unwrap();
        assert_eq!(outcome.result, Ok(10));
        assert_eq!(metrics.snapshot().retries, 1);
        engine.shutdown();
    }

    #[test]
    fn retry_completes_while_another_worker_is_busy() {
        // Job 0 holds one worker until job 1, which panics once, has been
        // retried to success: a retry never waits behind other work.
        let (retried, wait_for_retry) = channel::unbounded::<()>();
        let attempts = AtomicU64::new(0);
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let (engine, metrics) = engine_with(config, move |n| {
            if *n == 0 {
                let done = wait_for_retry.recv_timeout(Duration::from_secs(30));
                return u64::from(done.is_ok());
            }
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            let _ = retried.send(());
            2
        });
        let mut outcomes = engine.submit_batch(vec![0, 1]).wait();
        outcomes.sort_by_key(|o| o.job);
        assert_eq!(
            outcomes[0].result,
            Ok(1),
            "the retry waited for the long job"
        );
        assert_eq!(outcomes[1].result, Ok(2));
        assert_eq!(metrics.snapshot().retries, 1);
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_times_out_after_retry_budget() {
        let config = EngineConfig {
            workers: 1,
            job_timeout: Duration::ZERO,
            max_retries: 1,
        };
        let (engine, metrics) = engine_with(config, |n| *n);
        let outcome = engine.submit_batch(vec![5]).wait().pop().unwrap();
        assert_eq!(outcome.result, Err(JobError::TimedOut { attempts: 2 }));
        assert_eq!(metrics.snapshot().timeouts, 1);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (engine, _metrics) = engine_with(
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
            |n| {
                std::thread::sleep(Duration::from_micros(200));
                *n
            },
        );
        let handle = engine.submit_batch((0..100).collect());
        engine.shutdown();
        // Every job completed even though shutdown raced the queue.
        assert_eq!(handle.wait().len(), 100);
    }
}
