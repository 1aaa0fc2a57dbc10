//! Setup work spread over every available CPU.

use std::sync::OnceLock;

/// The CPUs this process may run on: how many threads setup work spreads
/// over. Tests pass other counts to the functions that take one. Asked
/// once per process: on Linux the answer reads the cgroup's CPU quota from
/// the file system, some 20 µs a call.
pub(crate) fn available() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `work` on every item of `items`, on the calling thread and on up to
/// `threads - 1` scoped threads, no more than there are further items
/// (`items`' size hint, which every caller's iterator gives exactly). The
/// threads take items from one shared queue; each makes its scratch with
/// `scratch` once. A refused spawn loses nothing (the others drain the
/// queue), and one thread or one item spawns nothing.
pub(crate) fn for_each<I, S>(
    threads: usize,
    items: I,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, I::Item) + Sync,
) where
    I: Iterator + Send,
    I::Item: Send,
{
    let helpers = threads.min(items.size_hint().0).saturating_sub(1);
    let queue = fluentps_util::sync::Mutex::new(items);
    // The lock is held for the `next()` alone; the item outlives it.
    let take = || queue.lock().next();
    let drain = || {
        let mut s = scratch();
        while let Some(item) = take() {
            work(&mut s, item);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            // A refused spawn leaves its items to the threads that did start.
            let _ = std::thread::Builder::new().spawn_scoped(s, drain);
        }
        drain();
    });
}
