//! The one worker pool behind every parallel loop in the workspace:
//! sweep cells, fleet site simulations and figure harnesses.
//!
//! Workers claim inputs in order from a shared queue, each input moves
//! into the worker that claims it (never cloned), and every input runs
//! under `catch_unwind`, so one panicking input cannot take down the
//! others. Results come back in input order whatever the worker count;
//! what a caught panic becomes is the caller's decision.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `work` on every input across up to `workers` scoped threads
/// (`None` = one per available core; always at least one and at most
/// one per input) and returns one result per input, in input order.
/// A panicking input yields `Err` with its panic payload at its own
/// index; every other input still runs to completion.
///
/// # Examples
///
/// ```
/// use jetsim::pool::{panic_message, run_isolated};
///
/// let results = run_isolated(vec![1, 2, 3], Some(2), |x: i32| {
///     assert!(x != 2, "two is unlucky");
///     x * 10
/// });
/// assert_eq!(results[0].as_ref().ok(), Some(&10));
/// let message = panic_message(results[1].as_ref().unwrap_err().as_ref());
/// assert!(message.contains("unlucky"));
/// assert_eq!(results[2].as_ref().ok(), Some(&30));
/// ```
pub fn run_isolated<T, R, F>(
    inputs: Vec<T>,
    workers: Option<usize>,
    work: F,
) -> Vec<std::thread::Result<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = inputs.len();
    let workers = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, n.max(1));
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement,
                        // so no input ever runs while holding the lock.
                        let next = queue
                            .lock()
                            .expect("no input runs while the queue is locked")
                            .next();
                        let Some((index, input)) = next else {
                            break;
                        };
                        done.push((index, catch_unwind(AssertUnwindSafe(|| work(input)))));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .expect("pool workers catch every panic inside `work`");
            for (index, result) in done {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every input claimed exactly once"))
        .collect()
}

/// A panic payload as text: the `panic!` message when it is a string,
/// a fixed placeholder otherwise.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares every input except 3, which panics.
    fn run(workers: usize) -> Vec<Result<u64, String>> {
        run_isolated((0..8).collect(), Some(workers), |x: u64| {
            assert!(x != 3, "input {x} fails");
            x * x
        })
        .into_iter()
        .map(|r| r.map_err(|payload| panic_message(payload.as_ref())))
        .collect()
    }

    #[test]
    fn panicking_input_errs_at_its_index_and_the_rest_complete() {
        let results = run(3);
        let expected: Vec<Result<u64, String>> = (0..8)
            .map(|i| {
                if i == 3 {
                    Err("input 3 fails".to_string())
                } else {
                    Ok(i * i)
                }
            })
            .collect();
        assert_eq!(results, expected);
        assert_eq!(run(1), results, "1 worker and 3 workers agree");
    }

    #[test]
    fn empty_input_runs_nothing() {
        assert!(run_isolated(Vec::<u8>::new(), Some(4), |x| x).is_empty());
        let payload: Box<dyn Any + Send> = Box::new(7_u32);
        assert_eq!(
            panic_message(payload.as_ref()),
            "panic with non-string payload"
        );
    }
}
