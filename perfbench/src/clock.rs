//! The calling thread's on-CPU clock.
//!
//! Every workload runs on one thread, so that thread's CPU time is the
//! work's cost. Unlike wall-clock time it leaves out the time the thread
//! waited for a processor, which keeps the figures steady on a shared host.

/// Nanoseconds of CPU time the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value with the C layout of
    // `struct timespec` on 64-bit Linux, and `clock_gettime` writes
    // nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere: monotonic wall-clock nanoseconds since first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Steps of [`calibration_ns`]'s loop.
const CALIBRATION_STEPS: u64 = 125_000;

/// What [`calibration_ns`] takes on the reference core: 4 ns a step.
const REFERENCE_NS: f64 = 500_000.0;

/// On-CPU nanoseconds a fixed chain of dependent integer steps takes.
///
/// The chain touches no memory, so its time follows only the speed the
/// host gives this core (its clock, and what shares the core with this
/// thread), which on a shared host drifts by a tenth or more over minutes.
pub fn calibration_ns() -> u64 {
    let t0 = cpu_ns();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(i);
    }
    std::hint::black_box(x);
    cpu_ns() - t0
}

/// `ns` measured while [`calibration_ns`] took `calibration` nanoseconds,
/// scaled to the reference core.
pub fn to_reference(ns: u64, calibration: f64) -> u64 {
    (ns as f64 * REFERENCE_NS / calibration) as u64
}
