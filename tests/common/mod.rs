//! Helpers shared by the integration test suites.

use dualsim::engine::ResultSet;
use std::time::{Duration, Instant};

/// Runs `f` three times and returns the results and the wall time of the
/// fastest run. Interference on a shared machine only ever slows a run,
/// so the fastest of three is the closest to what the code costs, and
/// two millisecond-scale timings compared this way do not flip on one
/// unlucky sample.
pub fn best_of_three(mut f: impl FnMut() -> ResultSet) -> (ResultSet, Duration) {
    let mut best: Option<(ResultSet, Duration)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let results = f();
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(_, t)| elapsed < *t) {
            best = Some((results, elapsed));
        }
    }
    best.unwrap()
}
