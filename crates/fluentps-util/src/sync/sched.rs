//! The calling thread's scheduler slice.
//!
//! Linux's fair scheduler (EEVDF, 6.6 on) runs a task for a slice — 1.4 ms
//! by default on a 2-CPU box, `se.slice` in `/proc/<tid>/sched` — before it
//! picks another, and orders runnable tasks by a virtual deadline one slice
//! past their eligible time. Since 6.12 a `SCHED_OTHER` task may ask for a
//! slice of its own through `sched_setattr`'s `sched_runtime`, which the
//! kernel clamps to 0.1–100 ms. A shorter slice leaves the task's share of
//! the CPU where it was (that is its weight, the nice value) but gives it
//! an earlier deadline whenever it wakes: a thread that sleeps most of the
//! time and then runs briefly preempts a compute-bound thread instead of
//! waiting out the rest of that thread's slice (DESIGN.md §18, "The reply
//! path").

/// Ask the kernel for the shortest slice it grants a fair task, 100 µs —
/// its clamp floor, not a tuned value — for the calling thread.
///
/// The thread's current attributes are read first and written back with
/// only the slice changed, so its policy and nice value are kept, plus
/// reset-on-fork: a thread it spawns starts with the default slice. A
/// thread that is not `SCHED_OTHER` is left alone, and so is every thread
/// when the call fails: on a kernel older than 6.12 (which ignores the
/// request), on another OS or another architecture (where this does
/// nothing).
pub fn take_shortest_slice() {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    linux::set_shortest_slice();
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod linux {
    use std::ffi::c_long;

    /// The kernel clamps a requested slice to at least this (0.1 ms).
    pub const SHORTEST_SLICE_NS: u64 = 100_000;

    const SCHED_OTHER: u32 = 0;
    const SCHED_FLAG_RESET_ON_FORK: u64 = 0x01;

    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETATTR: c_long = 314;
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_GETATTR: c_long = 315;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETATTR: c_long = 274;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_GETATTR: c_long = 275;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    /// `struct sched_attr` as of its first version (`SCHED_ATTR_SIZE_VER0`,
    /// 48 bytes); the kernel reads and writes no more than the size given.
    #[repr(C)]
    #[derive(Debug, Default, Clone, Copy)]
    pub struct SchedAttr {
        pub size: u32,
        pub policy: u32,
        pub flags: u64,
        pub nice: i32,
        pub priority: u32,
        /// A fair task's slice, in ns (0 on a kernel before 6.12).
        pub runtime: u64,
        pub deadline: u64,
        pub period: u64,
    }

    /// The calling thread's attributes (pid 0 is the caller).
    pub fn get() -> Option<SchedAttr> {
        let mut attr = SchedAttr::default();
        let size = std::mem::size_of::<SchedAttr>() as c_long;
        // SAFETY: `attr` is a live, writable `sched_attr` of `size` bytes.
        let rc = unsafe {
            syscall(
                SYS_SCHED_GETATTR,
                0 as c_long,
                &mut attr as *mut SchedAttr,
                size,
                0 as c_long,
            )
        };
        (rc == 0).then_some(attr)
    }

    /// Set the calling thread's attributes; false if the kernel refused.
    pub fn set(attr: &SchedAttr) -> bool {
        let attr = SchedAttr {
            size: std::mem::size_of::<SchedAttr>() as u32,
            ..*attr
        };
        // SAFETY: the kernel only reads `attr.size` bytes of a live value.
        let rc = unsafe {
            syscall(
                SYS_SCHED_SETATTR,
                0 as c_long,
                &attr as *const SchedAttr,
                0 as c_long,
            )
        };
        rc == 0
    }

    pub fn set_shortest_slice() {
        if let Some(attr) = get().filter(|attr| attr.policy == SCHED_OTHER) {
            set(&SchedAttr {
                flags: attr.flags | SCHED_FLAG_RESET_ON_FORK,
                runtime: SHORTEST_SLICE_NS,
                ..attr
            });
        }
    }
}

#[cfg(test)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::linux::{get, set, SchedAttr, SHORTEST_SLICE_NS};
    use super::take_shortest_slice;

    /// Run `body` on a fresh thread, so the attributes it changes die with it.
    fn on_own_thread<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::spawn(body).join().unwrap()
    }

    /// Whether the kernel reports a fair task's slice (from Linux 6.12).
    fn slice_reported(attr: &SchedAttr) -> bool {
        if attr.runtime == 0 {
            eprintln!("skipped: this kernel reports no slice for a fair task (before Linux 6.12)");
        }
        attr.runtime != 0
    }

    #[test]
    fn the_calling_thread_reads_back_the_shortest_slice() {
        let (before, after, spawned) = on_own_thread(|| {
            let before = get().expect("sched_getattr");
            take_shortest_slice();
            let after = get().expect("sched_getattr");
            (before, after, on_own_thread(get).expect("sched_getattr"))
        });
        if !slice_reported(&after) {
            return;
        }
        assert_eq!(after.runtime, SHORTEST_SLICE_NS);
        assert_eq!((after.policy, after.nice), (before.policy, before.nice));
        // Only the thread that asked: neither the thread it spawned nor
        // this one.
        assert_eq!(spawned.runtime, before.runtime);
        assert_eq!(get().expect("sched_getattr").runtime, before.runtime);
    }

    #[test]
    fn a_thread_whose_nice_value_was_raised_keeps_it() {
        let (raised, after) = on_own_thread(|| {
            let attr = get().expect("sched_getattr");
            let raised = (attr.nice + 5).min(19);
            // Raising one's own nice value needs no privilege.
            assert!(
                set(&SchedAttr {
                    nice: raised,
                    ..attr
                }),
                "sched_setattr nice"
            );
            take_shortest_slice();
            (raised, get().expect("sched_getattr"))
        });
        assert_eq!(after.nice, raised);
        if slice_reported(&after) {
            assert_eq!(after.runtime, SHORTEST_SLICE_NS);
        }
    }
}
