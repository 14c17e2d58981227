//! The harness's one wall-clock source. Measuring elapsed time is the
//! harness's whole purpose, so every clock read goes through [`now`].

pub use std::time::Duration;

/// A monotonic timestamp.
pub type Instant = std::time::Instant;

/// The current monotonic time.
pub fn now() -> Instant {
    // analyzer: allow(determinism): a benchmark harness measures wall time
    std::time::Instant::now()
}

/// Nanoseconds since the first call in this process: the one time base
/// of every span.
pub fn since_epoch_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(now);
    now().duration_since(epoch).as_nanos() as u64
}

/// Seconds elapsed since `start`, as a float.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
