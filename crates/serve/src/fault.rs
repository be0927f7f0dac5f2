//! Deterministic fault injection for the serve subsystem.
//!
//! A [`FaultPlan`] is a small list of *one-shot triggers*, each naming
//! an injection **site**, an occurrence **count** and an **action**.
//! The sites are compiled into the race witness workers and the session
//! loop —
//! always present, free when the plan is empty — so a chaos run and a
//! production run execute the same code. Plans are built from a spec
//! string (the `csst-serve --faults` flag or the `CSST_FAULTS`
//! environment variable):
//!
//! ```text
//! panic-witness=<slot>@<n>     race witness worker <slot> panics on its <n>th check
//! corrupt-events=<n>           the <n>th EVENTS payload is corrupted (seeded byte
//!                              flip + clobbered record header)
//! reset-conn=<n>               the connection is reset after <n> frames are read
//! seed=<s>                     xorshift seed for the corrupt-byte choice
//! ```
//!
//! Items are comma-separated; counts are 1-based. Every trigger fires
//! **exactly once** (atomic occurrence counters shared across clones),
//! which is what makes recovery testable: after the injected witness
//! panic, the sequential retry of the same chunk does not re-fire the
//! fault. All randomness is a seeded xorshift — two
//! runs with the same plan and the same traffic inject the same faults.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Injection sites (see the [module docs](self) for the spec syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One witness check run by race witness worker `slot`.
    WitnessCheck(usize),
    /// One EVENTS frame payload about to be decoded.
    EventsFrame,
    /// One frame read off a session socket.
    FrameRead,
}

/// What a fired trigger does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic the current thread (`panic-witness`).
    Panic,
    /// Flip one seeded byte of the payload (`corrupt-events`).
    Corrupt,
    /// Reset the connection (`reset-conn`).
    Reset,
}

#[derive(Debug)]
struct Trigger {
    site: Site,
    /// Fires on the `at`-th matching occurrence (1-based).
    at: u64,
    action: Action,
    seen: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    triggers: Vec<Trigger>,
    seed: u64,
}

/// A shared, deterministic fault plan; cloning shares the one-shot
/// trigger state. The default plan is empty and injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

/// One xorshift64* step — the only randomness fault injection uses.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// The empty plan: every site is a no-op.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan has no triggers.
    pub fn is_empty(&self) -> bool {
        self.inner.triggers.is_empty()
    }

    /// Builds a plan from the `CSST_FAULTS` environment variable; an
    /// unset/empty variable yields the empty plan.
    ///
    /// # Errors
    ///
    /// The parse error of a malformed spec.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("CSST_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec),
            _ => Ok(FaultPlan::none()),
        }
    }

    /// Parses a comma-separated spec string (see the [module
    /// docs](self) for the grammar).
    ///
    /// # Errors
    ///
    /// A message naming the malformed item.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut triggers = Vec::new();
        let mut seed = 0xC557_FA17u64; // default seed: arbitrary but fixed
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("malformed fault `{item}` (want key=value)"))?;
            if key == "seed" {
                seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed `{value}`"))?;
                continue;
            }
            let bad = || format!("malformed fault `{item}`");
            let parse_at = |s: &str| -> Result<u64, String> {
                s.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(bad)
            };
            let parse_slot_at = |s: &str| -> Result<(usize, u64), String> {
                let (slot, at) = s.split_once('@').ok_or_else(bad)?;
                Ok((slot.parse::<usize>().map_err(|_| bad())?, parse_at(at)?))
            };
            let (site, at, action) = match key {
                "panic-witness" => {
                    let (slot, at) = parse_slot_at(value)?;
                    (Site::WitnessCheck(slot), at, Action::Panic)
                }
                "corrupt-events" => (Site::EventsFrame, parse_at(value)?, Action::Corrupt),
                "reset-conn" => (Site::FrameRead, parse_at(value)?, Action::Reset),
                _ => return Err(format!("unknown fault kind `{key}`")),
            };
            triggers.push(Trigger {
                site,
                at,
                action,
                seen: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan {
            inner: Arc::new(Inner { triggers, seed }),
        })
    }

    /// Number of triggers that have fired so far (shared across
    /// clones) — lets tests assert an injected fault actually hit.
    pub fn fired(&self) -> usize {
        self.inner
            .triggers
            .iter()
            .filter(|t| t.seen.load(Ordering::Relaxed) >= t.at)
            .count()
    }

    /// Records one occurrence at `site` and returns the action of a
    /// trigger firing exactly now, if any. Callers are expected to
    /// apply the action (the plan cannot panic on the caller's behalf
    /// at every site).
    pub fn fire(&self, site: Site) -> Option<Action> {
        let mut fired = None;
        for t in &self.inner.triggers {
            if t.site == site {
                let seen = t.seen.fetch_add(1, Ordering::Relaxed) + 1;
                if seen == t.at {
                    fired = Some(t.action);
                }
            }
        }
        fired
    }

    /// [`Site::WitnessCheck`] helper: panics with a recognizable
    /// message when the trigger fires.
    pub fn on_witness_check(&self, slot: usize) {
        if self.fire(Site::WitnessCheck(slot)) == Some(Action::Panic) {
            panic!("injected fault: witness worker {slot} panic");
        }
    }

    /// [`Site::EventsFrame`] helper: corrupts `payload` in place when
    /// the trigger fires; returns whether it did.
    ///
    /// Two mutations: a seeded byte flip somewhere in the payload
    /// (position varies with `seed`), plus the first record's length
    /// prefix clobbered to an impossible value — a flipped value byte
    /// alone can still decode, and an injected corruption that goes
    /// unnoticed would silently skip the scenario it exists to force.
    /// What the decoder does with the mess (a positioned error, never
    /// a panic) is pinned separately by the CSTB corruption proptests.
    pub fn on_events_frame(&self, payload: &mut [u8]) -> bool {
        if self.fire(Site::EventsFrame) == Some(Action::Corrupt) && !payload.is_empty() {
            let mut state = self.inner.seed;
            let pos = (xorshift(&mut state) as usize) % payload.len();
            let bit = (xorshift(&mut state) % 8) as u8;
            payload[pos] = !payload[pos].rotate_left(bit as u32);
            if payload.len() >= 2 {
                payload[0] = 0xFF;
                payload[1] = 0xFF;
            }
            return true;
        }
        false
    }

    /// [`Site::FrameRead`] helper: true when the connection must be
    /// reset now.
    pub fn on_frame_read(&self) -> bool {
        self.fire(Site::FrameRead) == Some(Action::Reset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_and_one_shot_firing() {
        let plan =
            FaultPlan::parse("panic-witness=1@3, corrupt-events=2, reset-conn=4, seed=42").unwrap();
        assert!(!plan.is_empty());
        // panic-witness=1@3: third check on slot 1, exactly once.
        assert_eq!(plan.fire(Site::WitnessCheck(0)), None);
        assert_eq!(plan.fire(Site::WitnessCheck(1)), None);
        assert_eq!(plan.fire(Site::WitnessCheck(1)), None);
        // Clones share trigger state.
        let clone = plan.clone();
        assert_eq!(clone.fire(Site::WitnessCheck(1)), Some(Action::Panic));
        assert_eq!(plan.fire(Site::WitnessCheck(1)), None, "one-shot");
        // corrupt-events=2: second frame only.
        let mut payload = vec![1, 2, 3, 4];
        assert!(!plan.on_events_frame(&mut payload));
        assert_eq!(payload, vec![1, 2, 3, 4]);
        assert!(plan.on_events_frame(&mut payload));
        assert_ne!(payload, vec![1, 2, 3, 4]);
        // reset-conn=4.
        for _ in 0..3 {
            assert!(!plan.on_frame_read());
        }
        assert!(plan.on_frame_read());
        assert!(!plan.on_frame_read());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::parse(&format!("corrupt-events=1,seed={seed}")).unwrap();
            let mut payload = vec![0u8; 64];
            plan.on_events_frame(&mut payload);
            payload
        };
        assert_eq!(run(7), run(7), "same seed, same corruption");
        assert_ne!(run(7), run(8), "different seed, different corruption");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "panic-witness",
            "panic-witness=1",
            "panic-witness=x@1",
            "panic-witness=1@0",
            "panic-worker=0@20",
            "frobnicate=1@2",
            "seed=xyz",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn empty_plan_is_free_of_actions() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.fire(Site::WitnessCheck(0)), None);
        assert!(!plan.on_frame_read());
        let mut p = vec![9u8; 8];
        assert!(!plan.on_events_frame(&mut p));
        assert_eq!(p, vec![9u8; 8]);
    }
}
