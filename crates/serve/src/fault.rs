//! Deterministic, seeded failpoint registry for chaos testing the
//! serving runtime.
//!
//! Compiled only under `#[cfg(any(test, feature = "failpoints"))]` —
//! a production build without the `failpoints` feature carries none of
//! this code, and even a failpoints build runs nothing unless a fault
//! is explicitly [`arm`]ed.
//!
//! Every failpoint is a named **site** in the serving code. There are
//! three:
//!
//! * `"frozen::prep"` — one hit per attempt of the shared prep stage
//!   inside [`crate::FrozenDetector::score_samples`], which a dense noisy
//!   panel runs once before its group jobs (panics and delays);
//! * `"frozen::group"` — one hit per scoring attempt of one ensemble
//!   group inside [`crate::FrozenDetector::score_samples`];
//! * `"server::write_frame"` — one hit per TCP response frame.
//!
//! A site counts its hits; an armed [`FaultSpec`] decides
//! *deterministically* — from the hit number alone, optionally through a
//! seeded hash — whether a given hit fires its [`FaultAction`].
//! Determinism is the point: the chaos suite pins that scores stay
//! **bit-identical** through crash → retry, which requires replaying
//! the exact same fault schedule on every run.
//!
//! Faults a site can inject:
//!
//! * [`FaultAction::Panic`] — the prep stage or the group's scoring job
//!   panics (caught by the stage's `catch_unwind`, which re-runs it);
//! * [`FaultAction::Delay`] — the prep stage or the group's scoring job
//!   stalls (a slow stage holding its panel back);
//! * [`FaultAction::TornWrite`] — a TCP response frame is cut short and
//!   the socket closed (torn frame on the wire);
//! * [`FaultAction::PoisonCaches`] — the group's derived caches get
//!   their mutexes poisoned before scoring (a crashed lock holder),
//!   which the byte-bounded caches must absorb.
//!
//! The registry is process-global (sites live in library code, far from
//! any test handle), so chaos tests that arm faults must serialise on
//! [`tests_serialized`] and [`reset`] the registry when done.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Panic at the site (a crashing group job).
    Panic,
    /// Sleep this long at the site (a slow group job).
    Delay(Duration),
    /// Write only the first `keep_bytes` of the response frame, then
    /// close the socket (a torn TCP frame). Interpreted by the server's
    /// frame writer; other sites ignore it.
    TornWrite {
        /// How many bytes of the frame still reach the wire.
        keep_bytes: usize,
    },
    /// Poison the per-group derived-object cache mutexes before scoring
    /// (a lock holder that crashed). Interpreted by the `"frozen::group"`
    /// site; other sites ignore it.
    PoisonCaches,
}

/// Which hits of a site fire the action — all three forms are pure
/// functions of the hit number, so a fault schedule replays exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Fire on exactly these 1-based hit numbers.
    OnHits(Vec<u64>),
    /// Fire on every hit `h` with `h % period == offset % period`.
    Every { period: u64, offset: u64 },
    /// Fire on hit `h` iff `splitmix64(seed ^ h) % den < num` — a
    /// reproducible pseudo-random subset of hits.
    Seeded { seed: u64, num: u64, den: u64 },
}

/// A deterministic fault schedule: an action plus the set of hits that
/// fire it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    action: FaultAction,
    trigger: Trigger,
}

impl FaultSpec {
    /// Fires `action` on exactly the `hit`-th time the site is reached
    /// (1-based).
    pub fn on_hit(action: FaultAction, hit: u64) -> Self {
        Self::on_hits(action, &[hit])
    }

    /// Fires `action` on exactly the listed 1-based hit numbers.
    pub fn on_hits(action: FaultAction, hits: &[u64]) -> Self {
        FaultSpec {
            action,
            trigger: Trigger::OnHits(hits.to_vec()),
        }
    }

    /// Fires `action` on every `period`-th hit, phase-shifted by
    /// `offset`. A zero period never fires.
    pub fn every(action: FaultAction, period: u64, offset: u64) -> Self {
        FaultSpec {
            action,
            trigger: Trigger::Every { period, offset },
        }
    }

    /// Fires `action` on a seeded pseudo-random `num/den` fraction of
    /// hits — different hits, same hits every run.
    pub fn seeded(action: FaultAction, seed: u64, num: u64, den: u64) -> Self {
        FaultSpec {
            action,
            trigger: Trigger::Seeded { seed, num, den },
        }
    }

    /// Whether the `hit`-th reach of the site (1-based) fires.
    fn fires(&self, hit: u64) -> bool {
        match &self.trigger {
            Trigger::OnHits(hits) => hits.contains(&hit),
            Trigger::Every { period: 0, .. } => false,
            Trigger::Every { period, offset } => hit % period == offset % period,
            Trigger::Seeded { den: 0, .. } => false,
            Trigger::Seeded { seed, num, den } => splitmix64(seed ^ hit) % den < *num,
        }
    }
}

/// SplitMix64 — the standard 64-bit finalizer; good avalanche, no state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One site's registry entry: the armed schedule (if any) plus the hit
/// counter, which keeps counting even while disarmed so schedules can be
/// armed relative to process history.
#[derive(Debug, Default)]
struct SiteState {
    spec: Option<FaultSpec>,
    hits: u64,
}

fn registry() -> MutexGuard<'static, HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        // A panic-injecting registry must itself shrug off poisoning.
        .unwrap_or_else(PoisonError::into_inner)
}

/// The lock chaos tests hold while armed faults are live, so two suites
/// cannot interleave schedules on the process-global registry.
pub fn tests_serialized() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arms `spec` at the named site, resetting the site's hit counter so
/// 1-based schedules mean "the Nth hit from now".
pub fn arm(site: &str, spec: FaultSpec) {
    let mut reg = registry();
    let state = reg.entry(site.to_string()).or_default();
    state.spec = Some(spec);
    state.hits = 0;
}

/// Disarms the named site (the counter keeps counting).
pub fn disarm(site: &str) {
    if let Some(state) = registry().get_mut(site) {
        state.spec = None;
    }
}

/// Disarms every site and zeroes every counter.
pub fn reset() {
    registry().clear();
}

/// How many times the named site has been reached since it was last
/// armed (or since process start, if never armed).
pub fn hits(site: &str) -> u64 {
    registry().get(site).map_or(0, |s| s.hits)
}

/// Counts a hit at the site and returns the action to inject, if the
/// armed schedule fires on this hit.
pub fn check(site: &str) -> Option<FaultAction> {
    let mut reg = registry();
    let state = reg.entry(site.to_string()).or_default();
    state.hits += 1;
    let hit = state.hits;
    state
        .spec
        .as_ref()
        .filter(|spec| spec.fires(hit))
        .map(|spec| spec.action.clone())
}

/// [`check`] for sites whose only meaningful injections act in place:
/// panics panic, delays sleep, and structural actions (torn writes,
/// cache poisoning) are ignored — use [`check`] at sites that interpret
/// those.
pub fn act(site: &str) {
    match check(site) {
        Some(FaultAction::Panic) => panic!("failpoint {site:?} injected a panic"),
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic() {
        let _guard = tests_serialized();
        reset();
        arm(
            "t::on_hits",
            FaultSpec::on_hits(FaultAction::Panic, &[2, 4]),
        );
        let fired: Vec<bool> = (0..5).map(|_| check("t::on_hits").is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
        assert_eq!(hits("t::on_hits"), 5);

        arm(
            "t::every",
            FaultSpec::every(FaultAction::Delay(Duration::from_millis(1)), 3, 0),
        );
        let fired: Vec<bool> = (0..6).map(|_| check("t::every").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);

        // Seeded subsets replay exactly and move with the seed.
        arm("t::seeded", FaultSpec::seeded(FaultAction::Panic, 7, 1, 3));
        let a: Vec<bool> = (0..32).map(|_| check("t::seeded").is_some()).collect();
        arm("t::seeded", FaultSpec::seeded(FaultAction::Panic, 7, 1, 3));
        let b: Vec<bool> = (0..32).map(|_| check("t::seeded").is_some()).collect();
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&f| f), "a 1/3 fraction of 32 hits must fire");
        assert!(!a.iter().all(|&f| f), "…but not all of them");
        arm("t::seeded", FaultSpec::seeded(FaultAction::Panic, 8, 1, 3));
        let c: Vec<bool> = (0..32).map(|_| check("t::seeded").is_some()).collect();
        assert_ne!(a, c, "a different seed must fire different hits");
        reset();
    }

    #[test]
    fn unarmed_sites_count_but_never_fire() {
        let _guard = tests_serialized();
        reset();
        for _ in 0..3 {
            assert!(check("t::unarmed").is_none());
            act("t::unarmed");
        }
        // act() counts too: 3 checks + 3 acts.
        assert_eq!(hits("t::unarmed"), 6);
        disarm("t::unarmed");
        assert!(check("t::unarmed").is_none());
        reset();
        assert_eq!(hits("t::unarmed"), 0);
    }

    #[test]
    fn act_panics_on_a_armed_panic_hit() {
        let _guard = tests_serialized();
        reset();
        arm("t::act", FaultSpec::on_hit(FaultAction::Panic, 1));
        let caught = std::panic::catch_unwind(|| act("t::act"));
        assert!(caught.is_err(), "the armed panic must fire");
        assert!(
            std::panic::catch_unwind(|| act("t::act")).is_ok(),
            "hit 2 is past the schedule"
        );
        reset();
    }
}
