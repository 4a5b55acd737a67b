//! CPU placement: the daemon and the generator each get CPUs of their
//! own, so neither measures the other's scheduling. With `n` CPUs allowed
//! the generator takes the last one and the daemon the other `n - 1`; on
//! a single CPU nothing is pinned.

use std::ffi::{c_int, c_ulong};

const WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

fn allowed() -> Vec<usize> {
    let mut mask = [0 as c_ulong; WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which is
    // exactly that large; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * WORD_BITS)
        .filter(|cpu| (mask[cpu / WORD_BITS] >> (cpu % WORD_BITS)) & 1 == 1)
        .collect()
}

fn set(cpus: &[usize]) {
    let mut mask = [0 as c_ulong; WORDS];
    for &cpu in cpus {
        mask[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
    }
    // SAFETY: the kernel reads `size` bytes from `mask`, which is exactly
    // that large; pid 0 is the calling thread. A failure leaves placement
    // as it was, which costs steadiness, not correctness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// The CPU split: `(daemon CPUs, generator CPUs)`, or `None` when fewer
/// than two CPUs are allowed.
#[derive(Debug, Clone)]
pub struct Split {
    daemon: Vec<usize>,
    generator: Vec<usize>,
}

impl Split {
    /// Splits the CPUs this process may use, and moves the calling
    /// thread (and every thread it spawns later) onto the generator's.
    pub fn claim() -> Option<Split> {
        let mut cpus = allowed();
        let last = cpus.pop()?;
        if cpus.is_empty() {
            return None;
        }
        let split = Split {
            daemon: cpus,
            generator: vec![last],
        };
        set(&split.generator);
        Some(split)
    }

    /// Runs `spawn` with the calling thread on the daemon's CPUs, so the
    /// child process it starts inherits them, then moves back.
    pub fn on_daemon_cpus<T>(&self, spawn: impl FnOnce() -> T) -> T {
        set(&self.daemon);
        let out = spawn();
        set(&self.generator);
        out
    }
}
