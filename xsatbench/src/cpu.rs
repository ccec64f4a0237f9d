//! Thread placement for the open-loop workload, through the C library that
//! `std` already links.
//!
//! On a virtual machine, waking a thread on another CPU that is idle goes
//! through the hypervisor, and the scheduler decides per process, and for
//! a whole run, how often the client's and the server's threads meet on
//! one CPU. Left free, `service-mix` latency settled at one of two levels
//! per process (about 0.19 or 0.31 ms on a 2-vCPU VM). With the server's
//! threads on one CPU and the load threads on the other, every request
//! waited for the hypervisor to wake the server's CPU, and the median
//! followed the host's load. So the whole `service-mix` process runs on
//! one CPU: the sender spins briefly before each request is due, so that
//! CPU is awake when the request goes out, and every later hop is a
//! switch between threads of one CPU.

#![allow(unsafe_code)]

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on, in ascending order; empty if
/// the C library refuses to say.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`, where the kernel allows it.
/// Threads it spawns afterwards inherit the restriction.
pub fn pin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
    }
}
