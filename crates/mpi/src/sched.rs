//! Rank threads: the one owner of the workspace's OS threads.
//!
//! [`WorldConfig::launch`](crate::WorldConfig::launch) runs one OS thread
//! per rank, as an MPI job runs one process per core, and the OS
//! schedules them all. A rank that blocks (a matched receive,
//! [`Comm::sleep`](crate::Comm::sleep)) sleeps once, in that wait, and
//! wakes when its message or deadline arrives. Nothing else
//! bounds how many ranks run at once: a runnable-set bound costs a second
//! wake-up on every blocking receive and idles a CPU whenever the rank
//! holding a slot is not the one on the critical path.
//!
//! Message matching is by `(source, tag)`, so dump/restore results and
//! trace span sets do not depend on how the OS interleaves ranks
//! (`tests/sessions.rs` runs a seed twice and compares).
//!
//! This module is the only place in the workspace allowed to spawn OS
//! threads (the root `clippy.toml` disallows raw `std::thread` spawns
//! elsewhere); one-off background workers (e.g. a concurrent healer
//! session) go through [`spawn`].

/// Run each task on its own named scoped thread (`{name_prefix}-{i}`) and
/// join them all. Returns per-task join results in task order; panics are
/// carried as `Err` payloads exactly as `JoinHandle::join` reports them,
/// and a thread that could not be spawned as an `Err` holding the spawn
/// error's message (a `String`).
#[allow(
    clippy::disallowed_methods,
    reason = "the scheduler is the one owner of rank threads"
)]
pub fn run_tasks<T, F>(name_prefix: &str, tasks: Vec<F>) -> Vec<std::thread::Result<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{i}"))
                    .spawn_scoped(scope, task)
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(i, spawned)| match spawned {
                Ok(handle) => handle.join(),
                Err(e) => Err(Box::new(format!("spawn {name_prefix}-{i}: {e}")) as _),
            })
            .collect()
    })
}

/// Spawn a named detached background thread (e.g. a concurrent healer
/// session racing a dump). The one sanctioned escape hatch for `'static`
/// work; join it via the returned handle.
#[allow(
    clippy::disallowed_methods,
    reason = "the scheduler is the one owner of background threads"
)]
#[allow(
    clippy::expect_used,
    reason = "keeps its `JoinHandle` signature: a failed spawn has no `Err` to travel in"
)]
pub fn spawn<T, F>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn background thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_task_order() {
        let tasks: Vec<_> = (0..32).map(|i| move || i * 3).collect();
        let out = run_tasks("ord", tasks);
        let vals: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[allow(clippy::panic, reason = "the task under test panics")]
    fn a_panicking_task_is_its_own_err() {
        let mut tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| panic!("boom"))];
        for i in 0..3u32 {
            tasks.push(Box::new(move || i));
        }
        let out = run_tasks("crash", tasks);
        assert!(out[0].is_err());
        assert!(out[1..].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn spawn_runs_and_joins() {
        let h = spawn("bg-test", || 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
    }
}
