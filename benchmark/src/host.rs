//! The one place where the benchmark overrides a host default, because the
//! default made the same code read differently from run to run. It is a
//! plain C library call; elsewhere than Linux with glibc it does nothing.

/// Keep glibc from raising its mmap threshold as large blocks are freed.
///
/// With the default, adaptive threshold, whether a big vector grows in
/// place on the heap or leaves a hole behind depends on where the kernel
/// placed the heap, and `app_suite` — same seed, same code, one thread —
/// peaked at 19.5, 23.7 or 26.4 MiB from run to run. With the threshold
/// fixed at its initial 128 KiB the same runs read 19.33–19.43 MiB, and no
/// workload's timings moved beyond the host's own noise.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and updates one tunable of the C
    // allocator this process already links; it is called first thing in
    // `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_mmap_threshold() {}
