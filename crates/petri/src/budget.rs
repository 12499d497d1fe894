//! Exploration budgets and graceful-degradation outcomes.
//!
//! Every analysis in the workspace that enumerates states, tree nodes or
//! traces can explode on an adversarial input. Rather than panicking or
//! returning a hard error, budgeted explorers stop at a configurable
//! [`Budget`] and report *how far they got*:
//!
//! * Structure builders (reachability graphs, coverability trees, trace
//!   languages, contractions) return a [`Bounded`] value — either
//!   `Complete` or `Exhausted` with the partial structure attached.
//! * Property checkers (receptiveness, consistency) return a
//!   [`Verdict`] — `Holds`, `Fails(witness)` or `Unknown(Exhausted)`.
//!
//! The verdict lattice is `Unknown ⊑ Holds`, `Unknown ⊑ Fails`: a checker
//! may answer `Unknown` where a bigger budget would answer definitely, but
//! two definite answers for the same question never disagree. The
//! [`Verdict::agrees_with`] predicate encodes exactly this monotonicity
//! and is used as a property-test oracle.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default cap on distinct states/nodes discovered by an explorer.
///
/// This is the single shared constant behind every hardcoded
/// `with_max_states(2_000_000)` the workspace used to carry around.
pub const DEFAULT_MAX_STATES: usize = 2_000_000;

/// Default cap on explored edges/firings (a multiple of the state cap,
/// since bounded-degree graphs have a few edges per state).
pub const DEFAULT_MAX_TRANSITIONS: usize = 8_000_000;

/// A wall-clock deadline for an exploration.
///
/// A thin `Instant` wrapper so budgets can say *when* to give up, not
/// just *how much* to explore. `Copy`/`Eq`/`Hash` like `Instant`, so
/// embedding one keeps [`Budget`] freely copyable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline(Instant::now().checked_add(d).unwrap_or_else(|| {
            // Saturate absurd durations to "effectively never".
            Instant::now() + Duration::from_secs(60 * 60 * 24 * 365)
        }))
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline(instant)
    }

    /// The underlying instant.
    pub fn instant(self) -> Instant {
        self.0
    }

    /// Whether the deadline has passed.
    pub fn expired(self) -> bool {
        Instant::now() >= self.0
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }

    /// The earlier of two deadlines (used to shrink per-request
    /// deadlines under a draining server's global grace period).
    pub fn min(self, other: Deadline) -> Deadline {
        Deadline(self.0.min(other.0))
    }
}

// ----------------------------------------------------------------------
// Cooperative cancellation
// ----------------------------------------------------------------------
//
// A cancel flag must be shared between the thread running an exploration
// and the thread that decides to abandon it (a server noticing a client
// disconnect, a drain loop). `Arc<AtomicBool>` would force `Budget` to
// give up `Copy`/`Eq`/`Hash`, which every explorer relies on. Instead
// tokens are `Copy` handles `(slot, generation)` into a process-global
// slot registry: polling is one or two atomic loads, allocation reuses
// retired slots through a free list, and the generation word detects
// slot reuse so a stale token can never cancel an unrelated request
// silently. The registry tops out at `CANCEL_SLOT_CAP` *simultaneously
// live* scopes; beyond that scopes degrade to inert (never-cancelled)
// tokens rather than failing.

const CANCEL_SEG_SLOTS: usize = 64;
const CANCEL_SEGMENTS: usize = 64;
/// Maximum simultaneously live [`CancelScope`]s before new scopes
/// degrade to inert tokens.
pub const CANCEL_SLOT_CAP: usize = CANCEL_SEG_SLOTS * CANCEL_SEGMENTS;
const INERT_HANDLE: u32 = u32::MAX;

struct CancelSlot {
    gen: AtomicU32,
    flag: AtomicBool,
}

struct CancelRegistry {
    /// Lazily materialized fixed-address segments, so token polls read
    /// stable memory without taking any lock.
    segments: [OnceLock<Box<[CancelSlot; CANCEL_SEG_SLOTS]>>; CANCEL_SEGMENTS],
    free: Mutex<Vec<u32>>,
    next: AtomicU32,
}

fn cancel_registry() -> &'static CancelRegistry {
    static REGISTRY: OnceLock<CancelRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| CancelRegistry {
        segments: std::array::from_fn(|_| OnceLock::new()),
        free: Mutex::new(Vec::new()),
        next: AtomicU32::new(0),
    })
}

fn cancel_slot(handle: u32) -> Option<&'static CancelSlot> {
    let reg = cancel_registry();
    let seg = reg.segments.get((handle as usize) / CANCEL_SEG_SLOTS)?;
    seg.get().map(|s| &s[(handle as usize) % CANCEL_SEG_SLOTS])
}

/// A `Copy` cancellation handle carried inside a [`Budget`].
///
/// Obtained from a [`CancelScope`]; any thread holding a copy may call
/// [`CancelToken::cancel`] to ask in-flight explorations polling this
/// token to stop with [`Resource::Cancelled`]. Cancellation is
/// *advisory and sound*: it only ever turns a definite answer into
/// `Unknown(Exhausted)`, never the reverse, so a spurious cancel (e.g.
/// a token raced against its scope's drop) degrades gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CancelToken {
    handle: u32,
    gen: u32,
}

impl CancelToken {
    /// A token that is never cancelled (the default for budgets built
    /// without a scope, and the fallback when the registry is full).
    pub const fn inert() -> Self {
        CancelToken {
            handle: INERT_HANDLE,
            gen: 0,
        }
    }

    /// Whether cancellation has been requested.
    ///
    /// A token whose [`CancelScope`] has been dropped reads as
    /// cancelled: the request it guarded is over, so any exploration
    /// still polling it should stop.
    pub fn is_cancelled(self) -> bool {
        if self.handle == INERT_HANDLE {
            return false;
        }
        match cancel_slot(self.handle) {
            Some(s) => s.gen.load(Ordering::Acquire) != self.gen || s.flag.load(Ordering::Acquire),
            None => false,
        }
    }

    /// Requests cancellation. No-op on inert or retired tokens.
    pub fn cancel(self) {
        if self.handle == INERT_HANDLE {
            return;
        }
        if let Some(s) = cancel_slot(self.handle) {
            if s.gen.load(Ordering::Acquire) == self.gen {
                s.flag.store(true, Ordering::Release);
            }
        }
    }
}

/// The owning side of a cancellation flag.
///
/// Creating a scope allocates (or reuses) a registry slot; dropping it
/// retires the slot, after which every [`CancelToken`] copied from it
/// reads as cancelled. Typical server use: one scope per in-flight
/// request, token embedded in the request's [`Budget`], scope dropped
/// when the response is written.
#[derive(Debug)]
pub struct CancelScope {
    token: CancelToken,
}

impl CancelScope {
    /// Allocates a fresh scope. Degrades to an inert scope (tokens
    /// never cancel) if `CANCEL_SLOT_CAP` scopes are already live.
    pub fn new() -> Self {
        let reg = cancel_registry();
        let handle = {
            let popped = match reg.free.lock() {
                Ok(mut f) => f.pop(),
                Err(_) => None, // poisoned free list: allocate fresh
            };
            match popped {
                Some(h) => Some(h),
                None => reg
                    .next
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        if (v as usize) < CANCEL_SLOT_CAP {
                            Some(v + 1)
                        } else {
                            None
                        }
                    })
                    .ok(),
            }
        };
        let Some(handle) = handle else {
            return CancelScope {
                token: CancelToken::inert(),
            };
        };
        let seg = &reg.segments[(handle as usize) / CANCEL_SEG_SLOTS];
        let slots = seg.get_or_init(|| {
            Box::new(std::array::from_fn(|_| CancelSlot {
                gen: AtomicU32::new(0),
                flag: AtomicBool::new(false),
            }))
        });
        let slot = &slots[(handle as usize) % CANCEL_SEG_SLOTS];
        // Clear any flag leaked by a cancel that raced the previous
        // owner's retirement, then publish the current generation.
        slot.flag.store(false, Ordering::Release);
        let gen = slot.gen.load(Ordering::Acquire);
        CancelScope {
            token: CancelToken { handle, gen },
        }
    }

    /// A `Copy` token polling this scope's flag.
    pub fn token(&self) -> CancelToken {
        self.token
    }

    /// Requests cancellation of everything polling this scope's tokens.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

impl Default for CancelScope {
    fn default() -> Self {
        CancelScope::new()
    }
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        if self.token.handle == INERT_HANDLE {
            return;
        }
        if let Some(s) = cancel_slot(self.token.handle) {
            // Bump the generation first so stale tokens fail their
            // gen check before the slot is handed to a new owner.
            s.gen.fetch_add(1, Ordering::AcqRel);
            s.flag.store(false, Ordering::Release);
        }
        if let Ok(mut f) = cancel_registry().free.lock() {
            f.push(self.token.handle);
        }
    }
}

/// A resource budget for state-space exploration.
///
/// `max_states` bounds distinct markings/nodes discovered;
/// `max_transitions` bounds edges/firings examined. Exhausting either
/// stops the exploration gracefully. Optionally a budget also carries a
/// wall-clock [`Deadline`] and a cooperative [`CancelToken`]; explorers
/// poll both coarsely (every [`POLL_INTERVAL`] meter events, not per
/// state) and stop with [`Resource::Deadline`] / [`Resource::Cancelled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Maximum number of distinct states (markings, tree nodes, traces).
    pub max_states: usize,
    /// Maximum number of explored transitions (edges, firings).
    pub max_transitions: usize,
    /// Wall-clock instant after which the exploration stops.
    pub deadline: Option<Deadline>,
    /// Cooperative cancellation flag polled alongside the deadline.
    pub cancel: Option<CancelToken>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: DEFAULT_MAX_STATES,
            max_transitions: DEFAULT_MAX_TRANSITIONS,
            deadline: None,
            cancel: None,
        }
    }
}

impl Budget {
    /// A budget with explicit caps on both resources.
    pub fn new(max_states: usize, max_transitions: usize) -> Self {
        Budget {
            max_states,
            max_transitions,
            deadline: None,
            cancel: None,
        }
    }

    /// A budget capping only the number of states (transitions unlimited).
    pub fn states(max_states: usize) -> Self {
        Budget {
            max_states,
            max_transitions: usize::MAX,
            deadline: None,
            cancel: None,
        }
    }

    /// An effectively unlimited budget (both caps at `usize::MAX`).
    pub fn unlimited() -> Self {
        Budget {
            max_states: usize::MAX,
            max_transitions: usize::MAX,
            deadline: None,
            cancel: None,
        }
    }

    /// This budget with a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Deadline::after(d));
        self
    }

    /// This budget with an absolute deadline.
    pub fn with_deadline_at(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Immediate (not tick-gated) check of the deadline and cancel
    /// flag. Loops that do not thread a [`Meter`] call this at their own
    /// coarse interval.
    pub fn interrupted(&self) -> Option<Resource> {
        if let Some(d) = self.deadline {
            if d.expired() {
                return Some(Resource::Deadline);
            }
        }
        if let Some(c) = self.cancel {
            if c.is_cancelled() {
                return Some(Resource::Cancelled);
            }
        }
        None
    }
}

/// The resource that ran out when an exploration stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The state cap was reached.
    States,
    /// The transition cap was reached.
    Transitions,
    /// The wall-clock deadline passed.
    Deadline,
    /// Cooperative cancellation was requested.
    Cancelled,
    /// The state store refused another state: an allocation was
    /// refused, the 32-bit id space was full, or a token count would
    /// pass `u32::MAX`.
    Storage,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::States => write!(f, "states"),
            Resource::Transitions => write!(f, "transitions"),
            Resource::Deadline => write!(f, "deadline"),
            Resource::Cancelled => write!(f, "cancelled"),
            Resource::Storage => write!(f, "storage"),
        }
    }
}

/// Partial-exploration statistics attached to an early stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Exhausted {
    /// Which cap was hit first.
    pub resource: Resource,
    /// Distinct states discovered before stopping.
    pub states_explored: usize,
    /// Transitions examined before stopping.
    pub transitions_explored: usize,
    /// The budget that was in force.
    pub budget: Budget,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted ({}) after {} states / {} transitions",
            self.resource, self.states_explored, self.transitions_explored
        )
    }
}

/// Tri-state outcome of a budgeted property check.
///
/// `Fails` carries a witness found on the *explored prefix* of the state
/// space, so it is definite even when the exploration was cut short.
/// `Holds` is only returned after complete exploration. `Unknown` means
/// the budget ran out before either could be established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict<W> {
    /// The property holds (exploration was complete).
    Holds,
    /// The property fails, with a witness.
    Fails(W),
    /// The budget ran out before a definite answer.
    Unknown(Exhausted),
}

impl<W> Verdict<W> {
    /// Whether the verdict is a definite `Holds`.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// Whether the verdict is a definite `Fails`.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Fails(_))
    }

    /// Whether the verdict is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }

    /// Whether the verdict is definite (`Holds` or `Fails`).
    pub fn is_definite(&self) -> bool {
        !self.is_unknown()
    }

    /// The failure witness, if any.
    pub fn witness(&self) -> Option<&W> {
        match self {
            Verdict::Fails(w) => Some(w),
            _ => None,
        }
    }

    /// The exhaustion statistics, if the verdict is `Unknown`.
    pub fn exhausted(&self) -> Option<&Exhausted> {
        match self {
            Verdict::Unknown(e) => Some(e),
            _ => None,
        }
    }

    /// Maps the witness type.
    pub fn map<U>(self, f: impl FnOnce(W) -> U) -> Verdict<U> {
        match self {
            Verdict::Holds => Verdict::Holds,
            Verdict::Fails(w) => Verdict::Fails(f(w)),
            Verdict::Unknown(e) => Verdict::Unknown(e),
        }
    }

    /// The monotonicity relation of the verdict lattice: two verdicts for
    /// the *same question* agree unless one says `Holds` and the other
    /// `Fails`. An `Unknown` from a small budget is consistent with any
    /// definite answer from a larger one.
    pub fn agrees_with<V>(&self, other: &Verdict<V>) -> bool {
        !(self.holds() && other.fails() || self.fails() && other.holds())
    }
}

impl<W> fmt::Display for Verdict<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Fails(_) => write!(f, "fails"),
            Verdict::Unknown(e) => write!(f, "unknown ({e})"),
        }
    }
}

/// A structure built under a budget: complete, or a partial prefix with
/// statistics on where the exploration stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bounded<T> {
    /// The budget sufficed; the structure is exact.
    Complete(T),
    /// The budget ran out; `partial` is a sound prefix of the structure.
    Exhausted {
        /// The structure explored so far (a prefix, not the whole thing).
        partial: T,
        /// What stopped the exploration, and how far it got.
        info: Exhausted,
    },
}

impl<T> Bounded<T> {
    /// Whether the structure is complete.
    pub fn is_complete(&self) -> bool {
        matches!(self, Bounded::Complete(_))
    }

    /// The exhaustion statistics, if the build stopped early.
    pub fn exhausted(&self) -> Option<&Exhausted> {
        match self {
            Bounded::Complete(_) => None,
            Bounded::Exhausted { info, .. } => Some(info),
        }
    }

    /// The structure, complete or partial.
    pub fn value(&self) -> &T {
        match self {
            Bounded::Complete(t) | Bounded::Exhausted { partial: t, .. } => t,
        }
    }

    /// Consumes the wrapper, returning the structure (complete or partial).
    pub fn into_value(self) -> T {
        match self {
            Bounded::Complete(t) | Bounded::Exhausted { partial: t, .. } => t,
        }
    }

    /// The structure only if it is complete.
    pub fn complete(self) -> Option<T> {
        match self {
            Bounded::Complete(t) => Some(t),
            Bounded::Exhausted { .. } => None,
        }
    }

    /// Maps the carried structure, preserving completeness.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Bounded<U> {
        match self {
            Bounded::Complete(t) => Bounded::Complete(f(t)),
            Bounded::Exhausted { partial, info } => Bounded::Exhausted {
                partial: f(partial),
                info,
            },
        }
    }
}

/// How many meter events pass between wall-clock/cancel polls.
///
/// Deadline and cancellation are checked only every `POLL_INTERVAL`
/// calls to [`Meter::take_state`] / [`Meter::take_transition`] /
/// [`Meter::should_stop`], so the per-state cost of carrying a deadline
/// is one increment and one mask — `Instant::now()` never appears on
/// the per-state path.
pub const POLL_INTERVAL: u32 = 1024;

const POLL_MASK: u32 = POLL_INTERVAL - 1;

/// A mutable meter that explorers thread through their main loop.
///
/// Call [`Meter::take_state`] when discovering a new state and
/// [`Meter::take_transition`] when examining an edge; both return `false`
/// once a cap is hit, after which the meter stays stopped. Both also
/// poll the budget's deadline and cancel flag at a coarse tick interval
/// ([`POLL_INTERVAL`]); loops that can spin without taking states or
/// transitions should call [`Meter::should_stop`] instead.
#[derive(Clone, Debug)]
pub struct Meter {
    budget: Budget,
    states: usize,
    transitions: usize,
    stopped: Option<Resource>,
    tick: u32,
}

impl Meter {
    /// A fresh meter for the given budget.
    pub fn new(budget: &Budget) -> Self {
        Meter {
            budget: *budget,
            states: 0,
            transitions: 0,
            stopped: None,
            tick: 0,
        }
    }

    /// One coarse tick: polls the wall clock and cancel flag every
    /// [`POLL_INTERVAL`] calls (including the very first, so an
    /// already-expired deadline stops the exploration immediately).
    #[inline]
    fn tick_poll(&mut self) {
        if self.stopped.is_some() {
            return;
        }
        if self.tick & POLL_MASK == 0 {
            self.poll_interrupts();
        }
        self.tick = self.tick.wrapping_add(1);
    }

    /// Immediately checks deadline and cancellation (no tick gating),
    /// marking the meter stopped if either fired. Returns whether the
    /// meter is stopped afterwards.
    pub fn poll_interrupts(&mut self) -> bool {
        if self.stopped.is_none() {
            self.stopped = self.budget.interrupted();
        }
        self.stopped.is_some()
    }

    /// The cheap per-iteration stop check for loops that do their own
    /// accounting: one increment + mask per call, a real wall-clock /
    /// cancel poll every [`POLL_INTERVAL`] calls. Returns `true` once
    /// the meter is stopped for any reason.
    #[inline]
    pub fn should_stop(&mut self) -> bool {
        self.tick_poll();
        self.stopped.is_some()
    }

    /// Accounts for one newly discovered state. Returns `false` (and
    /// marks the meter stopped) when the state cap is exhausted.
    pub fn take_state(&mut self) -> bool {
        self.tick_poll();
        if self.stopped.is_some() {
            return false;
        }
        if self.states >= self.budget.max_states {
            self.stopped = Some(Resource::States);
            return false;
        }
        self.states += 1;
        true
    }

    /// Accounts for one examined transition. Returns `false` (and marks
    /// the meter stopped) when the transition cap is exhausted.
    pub fn take_transition(&mut self) -> bool {
        self.tick_poll();
        if self.stopped.is_some() {
            return false;
        }
        if self.transitions >= self.budget.max_transitions {
            self.stopped = Some(Resource::Transitions);
            return false;
        }
        self.transitions += 1;
        true
    }

    /// Stops the meter for `resource` — a stop the budget does not
    /// track, such as [`Resource::Storage`] — unless it has already
    /// stopped.
    pub fn stop(&mut self, resource: Resource) {
        self.stopped.get_or_insert(resource);
    }

    /// Whether a cap has been hit.
    pub fn is_stopped(&self) -> bool {
        self.stopped.is_some()
    }

    /// States accounted for so far.
    pub fn states_explored(&self) -> usize {
        self.states
    }

    /// Transitions accounted for so far.
    pub fn transitions_explored(&self) -> usize {
        self.transitions
    }

    /// The exhaustion report, if a cap was hit.
    pub fn report(&self) -> Option<Exhausted> {
        self.stopped.map(|resource| Exhausted {
            resource,
            states_explored: self.states,
            transitions_explored: self.transitions,
            budget: self.budget,
        })
    }

    /// Wraps a finished structure: `Complete` if no cap was hit,
    /// `Exhausted` otherwise.
    pub fn finish<T>(&self, value: T) -> Bounded<T> {
        match self.report() {
            None => Bounded::Complete(value),
            Some(info) => Bounded::Exhausted {
                partial: value,
                info,
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_uses_shared_constants() {
        let b = Budget::default();
        assert_eq!(b.max_states, DEFAULT_MAX_STATES);
        assert_eq!(b.max_transitions, DEFAULT_MAX_TRANSITIONS);
    }

    #[test]
    fn meter_stops_at_state_cap() {
        let mut m = Meter::new(&Budget::states(2));
        assert!(m.take_state());
        assert!(m.take_state());
        assert!(!m.take_state());
        assert!(m.is_stopped());
        let info = m.report().unwrap();
        assert_eq!(info.resource, Resource::States);
        assert_eq!(info.states_explored, 2);
    }

    #[test]
    fn meter_stops_at_transition_cap() {
        let mut m = Meter::new(&Budget::new(100, 1));
        assert!(m.take_state());
        assert!(m.take_transition());
        assert!(!m.take_transition());
        // Once stopped, everything is refused.
        assert!(!m.take_state());
        assert_eq!(m.report().unwrap().resource, Resource::Transitions);
    }

    #[test]
    fn finish_wraps_by_stop_state() {
        let mut m = Meter::new(&Budget::states(1));
        assert!(m.take_state());
        assert!(m.finish(()).is_complete());
        assert!(!m.take_state());
        assert!(!m.finish(()).is_complete());
    }

    #[test]
    fn verdict_lattice_agreement() {
        let holds: Verdict<()> = Verdict::Holds;
        let fails: Verdict<()> = Verdict::Fails(());
        let unknown: Verdict<()> = Verdict::Unknown(Exhausted {
            resource: Resource::States,
            states_explored: 1,
            transitions_explored: 0,
            budget: Budget::states(1),
        });
        assert!(!holds.agrees_with(&fails));
        assert!(!fails.agrees_with(&holds));
        assert!(unknown.agrees_with(&holds));
        assert!(unknown.agrees_with(&fails));
        assert!(holds.agrees_with(&holds));
        assert!(fails.agrees_with(&fails));
    }

    #[test]
    fn bounded_accessors() {
        let c: Bounded<u32> = Bounded::Complete(7);
        assert!(c.is_complete());
        assert_eq!(*c.value(), 7);
        assert_eq!(c.clone().complete(), Some(7));
        assert_eq!(c.map(|x| x + 1).into_value(), 8);
    }

    #[test]
    fn budget_stays_copy_eq_hash() {
        fn assert_copy_eq_hash<T: Copy + Eq + std::hash::Hash + Send + Sync>() {}
        assert_copy_eq_hash::<Budget>();
        assert_copy_eq_hash::<Deadline>();
        assert_copy_eq_hash::<CancelToken>();
        assert_copy_eq_hash::<Exhausted>();
    }

    #[test]
    fn expired_deadline_stops_meter_with_deadline_resource() {
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let mut m = Meter::new(&budget);
        // The first tick polls immediately, so an already-expired
        // deadline refuses the very first take.
        assert!(!m.take_state());
        assert_eq!(m.report().unwrap().resource, Resource::Deadline);
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let mut m = Meter::new(&budget);
        for _ in 0..(POLL_INTERVAL * 3) {
            assert!(m.take_transition());
        }
        assert!(!m.should_stop());
    }

    #[test]
    fn deadline_is_polled_coarsely_not_per_take() {
        // A deadline that expires mid-run is noticed within one poll
        // interval, not necessarily on the very next take.
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(5));
        let mut m = Meter::new(&budget);
        assert!(m.take_state());
        std::thread::sleep(Duration::from_millis(10));
        let mut takes = 0u32;
        while m.take_transition() {
            takes += 1;
            assert!(takes <= POLL_INTERVAL, "deadline never noticed");
        }
        assert_eq!(m.report().unwrap().resource, Resource::Deadline);
    }

    #[test]
    fn cancel_token_stops_meter() {
        let scope = CancelScope::new();
        let budget = Budget::unlimited().with_cancel(scope.token());
        let mut m = Meter::new(&budget);
        assert!(m.take_state());
        scope.cancel();
        let mut takes = 0u32;
        while m.take_transition() {
            takes += 1;
            assert!(takes <= POLL_INTERVAL, "cancel never noticed");
        }
        assert_eq!(m.report().unwrap().resource, Resource::Cancelled);
    }

    #[test]
    fn dropped_scope_reads_as_cancelled_and_slot_reuse_is_isolated() {
        let scope = CancelScope::new();
        let stale = scope.token();
        assert!(!stale.is_cancelled());
        drop(scope);
        // The guarded request is over: pollers of the stale token stop.
        assert!(stale.is_cancelled());
        // A new scope (possibly reusing the slot) is unaffected by the
        // stale token, in either direction.
        let fresh = CancelScope::new();
        assert!(!fresh.token().is_cancelled());
        stale.cancel();
        assert!(!fresh.token().is_cancelled());
    }

    #[test]
    fn inert_token_is_never_cancelled() {
        let t = CancelToken::inert();
        t.cancel();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn interrupted_reports_first_firing_axis() {
        let scope = CancelScope::new();
        let b = Budget::unlimited().with_cancel(scope.token());
        assert_eq!(b.interrupted(), None);
        scope.cancel();
        assert_eq!(b.interrupted(), Some(Resource::Cancelled));
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.interrupted(), Some(Resource::Deadline));
    }

    #[test]
    fn deadline_min_and_remaining() {
        let near = Deadline::after(Duration::from_millis(1));
        let far = Deadline::after(Duration::from_secs(100));
        assert_eq!(near.min(far), near);
        assert_eq!(far.min(near), near);
        assert!(far.remaining() > Duration::from_secs(50));
        assert!(!far.expired());
    }

    #[test]
    fn verdict_accessors() {
        let v: Verdict<&str> = Verdict::Fails("w");
        assert!(v.fails());
        assert!(v.is_definite());
        assert_eq!(v.witness(), Some(&"w"));
        assert_eq!(v.map(str::len).witness(), Some(&1));
    }
}
