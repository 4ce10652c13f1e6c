//! A bounded worker pool for independent simulation tasks.
//!
//! Fans whole *runs* out — the figure sweeps of the bench crate (which
//! re-exports it) and the cluster profiler's `ExecMode::Pool`. A single
//! model run never uses it: [`crate::runner`] walks the graph
//! sequentially and [`crate::RunOptions::parallel`] parallelises inside a
//! layer.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker task of [`run_parallel`] panicked.
#[derive(Debug)]
pub struct ParallelError {
    /// Index of the task (in submission order) that panicked.
    pub task_index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation task {} panicked: {}",
            self.task_index, self.message
        )
    }
}

impl std::error::Error for ParallelError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs independent simulation tasks on a worker pool capped at
/// `available_parallelism()`, returning their results in submission
/// order.
///
/// The figure sweeps (7 models × 3 architectures and similar) previously
/// spawned one unbounded OS thread per combination; this runner bounds
/// the fan-out to the machine's core count and converts worker panics
/// into a [`ParallelError`] instead of panicking on `join`.
///
/// # Errors
///
/// Returns the first (lowest-index) panicking task. The remaining tasks
/// still run to completion — workers drain the queue regardless.
pub fn run_parallel<T, F>(tasks: Vec<F>) -> Result<Vec<T>, ParallelError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each slot is claimed exactly once");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                *results[i].lock().expect("result lock") = Some(outcome);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for (i, cell) in results.into_iter().enumerate() {
        match cell.into_inner().expect("result lock").expect("task ran") {
            Ok(value) => out.push(value),
            Err(payload) => {
                return Err(ParallelError {
                    task_index: i,
                    message: panic_message(payload),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_submission_order() {
        let tasks: Vec<_> = (0..40usize).map(|i| move || i * i).collect();
        let out = run_parallel(tasks).unwrap();
        assert_eq!(out, (0..40usize).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run_parallel::<u8, fn() -> u8>(vec![]).unwrap(), vec![]);
    }

    #[test]
    fn run_parallel_reports_the_first_panicking_task() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom-a")),
            Box::new(|| 3),
            Box::new(|| panic!("boom-b")),
        ];
        let err = run_parallel(tasks).unwrap_err();
        std::panic::set_hook(hook);
        assert_eq!(err.task_index, 1);
        assert!(err.message.contains("boom-a"), "{}", err.message);
        assert!(err.to_string().contains("task 1"));
    }
}
