//! Deterministic failpoint injection for the maintenance chaos harness.
//!
//! A *failpoint* is a named site inside the delta engine's maintenance
//! path (`pre-drain`, `mid-round`, `post-cull`, `counter-increment`,
//! `rollback`) where the chaos tests can inject a fault: arming a point
//! with [`arm`] makes the Nth pass through that site return
//! [`MaintainError::Failpoint`] instead of proceeding, which the epoch
//! machinery treats exactly like any mid-flight error — the batch rolls
//! back. The special `rollback` point fires *inside* `abort_epoch` and
//! models a failing rollback, which poisons the engine.
//!
//! The registry is **thread-local and deterministic**: no clocks, no
//! randomness, no cross-thread state. All sites live on the coordinator
//! thread (drain shards never consult the registry), so arming from a
//! test and driving maintenance on the same thread is race-free by
//! construction. When nothing is armed the per-site cost is one
//! thread-local flag read.
//!
//! This module exists for the chaos proptests; production callers never
//! arm anything and pay (almost) nothing.

use crate::errors::MaintainError;
use std::cell::{Cell, RefCell};

thread_local! {
    /// Fast path: `true` iff any point is armed on this thread.
    static ANY_ARMED: Cell<bool> = const { Cell::new(false) };
    /// Armed points: `(site name, remaining passes before firing)`.
    /// A countdown of 0 fires on the next pass through the site.
    static ARMED: RefCell<Vec<(&'static str, u32)>> = const { RefCell::new(Vec::new()) };
}

/// The failpoint site names the delta engine exposes, in the order a
/// maintenance batch passes them. Useful for chaos harnesses that
/// iterate every crash site.
pub const SITES: [&str; 5] = [
    "counter-increment",
    "pre-drain",
    "mid-round",
    "post-cull",
    "rollback",
];

/// The failpoint site names of the durability layer, in the order a
/// committed batch passes them: the WAL append (before any byte is
/// written, mid-record to model a torn write, before the fsync) and
/// the snapshot path (before the temp write, mid-payload, before its
/// fsync, before the atomic rename).
pub const DURABILITY_SITES: [&str; 7] = [
    "wal-append",
    "wal-tear",
    "wal-fsync",
    "snapshot-write",
    "snapshot-tear",
    "snapshot-fsync",
    "snapshot-rename",
];

/// The failpoint site of the multi-query session layer: checked at the
/// top of each registered query's share of a fan-out, *before* any of
/// that query's engines are touched — a session-fanout kill degrades
/// the query without even starting (and so without rolling back) its
/// batch.
pub const SESSION_SITES: [&str; 1] = ["session-fanout"];

/// Every registered failpoint site — the engine's maintenance sites
/// ([`SITES`]) followed by the durability layer's ([`DURABILITY_SITES`])
/// and the session layer's ([`SESSION_SITES`]). Chaos harnesses iterate
/// this instead of hard-coding a site list, so a site added to any
/// layer is automatically crash-tested.
pub fn registered_sites() -> Vec<&'static str> {
    SITES
        .iter()
        .chain(DURABILITY_SITES.iter())
        .chain(SESSION_SITES.iter())
        .copied()
        .collect()
}

/// Arms `point` to fire after `countdown` additional passes through the
/// site (0 = fire on the very next pass). Re-arming an already-armed
/// point replaces its countdown. The point disarms itself when it
/// fires.
pub fn arm(point: &'static str, countdown: u32) {
    ARMED.with(|armed| {
        let mut armed = armed.borrow_mut();
        if let Some(entry) = armed.iter_mut().find(|(name, _)| *name == point) {
            entry.1 = countdown;
        } else {
            armed.push((point, countdown));
        }
    });
    ANY_ARMED.with(|f| f.set(true));
}

/// Disarms every point on this thread. Chaos tests call this between
/// cases so a point armed for one scenario cannot leak into the next.
pub fn disarm_all() {
    ARMED.with(|armed| armed.borrow_mut().clear());
    ANY_ARMED.with(|f| f.set(false));
}

/// `true` iff any point is currently armed on this thread.
pub fn any_armed() -> bool {
    ANY_ARMED.with(|f| f.get())
}

/// The engine-side check: returns `Err(MaintainError::Failpoint)` iff
/// `point` is armed and its countdown has elapsed, decrementing the
/// countdown otherwise. Sites call this on the coordinator thread only.
#[inline]
pub fn check(point: &'static str) -> Result<(), MaintainError> {
    if !ANY_ARMED.with(|f| f.get()) {
        return Ok(());
    }
    check_slow(point)
}

#[cold]
fn check_slow(point: &'static str) -> Result<(), MaintainError> {
    ARMED.with(|armed| {
        let mut armed = armed.borrow_mut();
        let Some(pos) = armed.iter().position(|(name, _)| *name == point) else {
            return Ok(());
        };
        if armed[pos].1 == 0 {
            armed.swap_remove(pos);
            if armed.is_empty() {
                ANY_ARMED.with(|f| f.set(false));
            }
            Err(MaintainError::Failpoint { point })
        } else {
            armed[pos].1 -= 1;
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_pass_through() {
        disarm_all();
        assert!(!any_armed());
        assert_eq!(check("pre-drain"), Ok(()));
    }

    #[test]
    fn countdown_fires_on_the_nth_pass_then_disarms() {
        disarm_all();
        arm("mid-round", 2);
        assert_eq!(check("mid-round"), Ok(()));
        assert_eq!(check("pre-drain"), Ok(()), "other sites are unaffected");
        assert_eq!(check("mid-round"), Ok(()));
        assert_eq!(
            check("mid-round"),
            Err(MaintainError::Failpoint { point: "mid-round" })
        );
        assert!(!any_armed(), "a fired point disarms itself");
        assert_eq!(check("mid-round"), Ok(()));
    }

    #[test]
    fn registered_sites_cover_both_layers_without_duplicates() {
        let sites = registered_sites();
        assert_eq!(
            sites.len(),
            SITES.len() + DURABILITY_SITES.len() + SESSION_SITES.len()
        );
        for s in SITES {
            assert!(sites.contains(&s), "{s} missing from registered_sites");
        }
        for s in DURABILITY_SITES {
            assert!(sites.contains(&s), "{s} missing from registered_sites");
        }
        for s in SESSION_SITES {
            assert!(sites.contains(&s), "{s} missing from registered_sites");
        }
        let mut dedup = sites.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sites.len(), "site names must be unique");
    }

    #[test]
    fn rearming_replaces_the_countdown() {
        disarm_all();
        arm("post-cull", 5);
        arm("post-cull", 0);
        assert_eq!(
            check("post-cull"),
            Err(MaintainError::Failpoint { point: "post-cull" })
        );
        disarm_all();
    }
}
