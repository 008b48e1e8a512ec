//! Fault injection — deterministic source failures for testing the
//! mediator's degradation behaviour.
//!
//! The paper's §3.5 concedes that sources are autonomous; a production
//! mediator must survive a flaky or dead source. This module provides the
//! test/bench side of that story: [`FaultInjectingWrapper`] decorates any
//! [`Wrapper`] and fails (or delays) queries according to a deterministic
//! [`FaultPlan`] — fail-the-first-N, fail-every-Kth, seeded coin flips,
//! injected latency — so the executor's retry policy, deadlines and
//! circuit breaker can be exercised with *exactly* reproducible fault
//! sequences and no real sleeping.
//!
//! Time is abstracted behind [`Clock`] so latency can be virtual:
//! [`VirtualClock`] is a shared millisecond counter that the decorator
//! advances instead of sleeping, and that the datamerge engine's deadline
//! check reads instead of `Instant::now`. Tests wire the same
//! `Arc<VirtualClock>` into both, making "a source that takes 80ms against
//! a 50ms deadline" an instant, deterministic scenario.

use crate::api::{ExtractVar, Rows, SourceStats, Wrapper, WrapperError};
use crate::capabilities::Capabilities;
use crate::metrics::{WrapperCounters, WrapperMetrics};
use msl::Rule;
use oem::{ObjectStore, Symbol};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone millisecond clock. The datamerge engine measures source-call
/// latency against per-source deadlines through this trait; production
/// uses [`SystemClock`], tests share a [`VirtualClock`] with the fault
/// injector so injected latency is visible without sleeping.
pub trait Clock: Send + Sync {
    /// Milliseconds since an arbitrary (fixed) origin.
    fn now_ms(&self) -> u64;

    /// Microseconds since the same origin. The default scales
    /// [`Clock::now_ms`], for clocks that count whole milliseconds only.
    fn now_us(&self) -> u64 {
        self.now_ms().saturating_mul(1000)
    }
}

/// Wall-clock time via [`Instant`], origin = construction.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock starting at zero now.
    pub fn new() -> SystemClock {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A manually-advanced millisecond counter, shared between a fault
/// injector (which advances it by injected latency) and the executor
/// (which reads it for deadline checks and advances it for virtual
/// backoff sleeps). Thread-safe: chains may run in parallel.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ms: AtomicU64,
}

impl VirtualClock {
    /// A clock at t = 0ms.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Advance the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::Relaxed)
    }
}

/// Which transient [`WrapperError`] an injected fault raises.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultKind {
    /// The source looks down ([`WrapperError::Unavailable`]).
    #[default]
    Unavailable,
    /// The source looks hung ([`WrapperError::Timeout`]).
    Timeout,
}

/// A deterministic schedule of injected faults, evaluated per query in
/// arrival order (call index 0, 1, 2, ...). All components compose: a call
/// fails if *any* active component says so.
///
/// ```
/// use wrappers::fault::FaultPlan;
/// let plan = FaultPlan::none().fail_first(2); // flaky, then recovers
/// assert!(plan.injects_fault(0) && plan.injects_fault(1));
/// assert!(!plan.injects_fault(2));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    fail_first: usize,
    fail_every: usize,
    fail_probability: f64,
    seed: u64,
    latency_ms: u64,
    kind: FaultKind,
}

impl FaultPlan {
    /// The empty plan: every query succeeds instantly.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A permanently dead source: every query fails.
    pub fn always_down() -> FaultPlan {
        FaultPlan::none().fail_first(usize::MAX)
    }

    /// Fail the first `n` queries, then recover ("flaky-then-recovers").
    pub fn fail_first(mut self, n: usize) -> FaultPlan {
        self.fail_first = n;
        self
    }

    /// Fail every `k`-th query (the k-th, 2k-th, ...; `k = 0` disables).
    pub fn fail_every(mut self, k: usize) -> FaultPlan {
        self.fail_every = k;
        self
    }

    /// Fail each query independently with probability `p`, decided by a
    /// seeded hash of the call index — deterministic for a given seed.
    pub fn flaky(mut self, p: f64, seed: u64) -> FaultPlan {
        self.fail_probability = p;
        self.seed = seed;
        self
    }

    /// Inject `ms` milliseconds of latency into every query (virtual when
    /// the decorator holds a [`VirtualClock`], real sleeping otherwise).
    pub fn latency_ms(mut self, ms: u64) -> FaultPlan {
        self.latency_ms = ms;
        self
    }

    /// Raise [`FaultKind::Timeout`] instead of the default
    /// [`FaultKind::Unavailable`].
    pub fn timeouts(mut self) -> FaultPlan {
        self.kind = FaultKind::Timeout;
        self
    }

    /// The latency this plan injects per call, in milliseconds.
    pub fn latency(&self) -> u64 {
        self.latency_ms
    }

    /// Whether the `call_index`-th query (0-based) fails under this plan.
    /// Pure and deterministic: the same plan and index always agree.
    pub fn injects_fault(&self, call_index: usize) -> bool {
        if call_index < self.fail_first {
            return true;
        }
        if self.fail_every > 0 && (call_index + 1).is_multiple_of(self.fail_every) {
            return true;
        }
        if self.fail_probability > 0.0 {
            // splitmix64 over seed ⊕ index → uniform in [0, 1).
            let mut z = self.seed ^ (call_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            if unit < self.fail_probability {
                return true;
            }
        }
        false
    }

    fn error(&self, source: Symbol, call_index: usize) -> WrapperError {
        match self.kind {
            FaultKind::Unavailable => WrapperError::Unavailable(format!(
                "injected fault: source '{source}' down (call #{call_index})"
            )),
            FaultKind::Timeout => WrapperError::Timeout(format!(
                "injected fault: source '{source}' hung (call #{call_index})"
            )),
        }
    }
}

/// A decorator that wraps any source and injects faults per a
/// [`FaultPlan`] — the test double for an unreliable network source.
/// Capabilities, statistics and name pass through to the inner wrapper;
/// [`Wrapper::metrics`] reports the decorator's own counters (including
/// `faults_injected`).
pub struct FaultInjectingWrapper {
    inner: Arc<dyn Wrapper>,
    plan: FaultPlan,
    clock: Option<Arc<VirtualClock>>,
    calls: AtomicUsize,
    counters: WrapperCounters,
}

impl FaultInjectingWrapper {
    /// Decorate `inner` with `plan`. Injected latency really sleeps;
    /// prefer [`FaultInjectingWrapper::with_virtual_clock`] in tests.
    pub fn new(inner: Arc<dyn Wrapper>, plan: FaultPlan) -> FaultInjectingWrapper {
        FaultInjectingWrapper {
            inner,
            plan,
            clock: None,
            calls: AtomicUsize::new(0),
            counters: WrapperCounters::new(),
        }
    }

    /// Make injected latency virtual: instead of sleeping, each query
    /// advances `clock` by the plan's latency. Share the same clock with
    /// the executor's deadline check for instant, deterministic tests.
    pub fn with_virtual_clock(mut self, clock: Arc<VirtualClock>) -> FaultInjectingWrapper {
        self.clock = Some(clock);
        self
    }

    /// Queries that have arrived at the decorator so far.
    pub fn calls_seen(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// The plan this decorator follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Wrapper for FaultInjectingWrapper {
    fn name(&self) -> Symbol {
        self.inner.name()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn stats(&self) -> Option<SourceStats> {
        self.inner.stats()
    }

    fn metrics(&self) -> Option<WrapperMetrics> {
        Some(self.counters.snapshot())
    }

    fn schema_summary(&self) -> Option<crate::summary::SchemaSummary> {
        self.inner.schema_summary()
    }

    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError> {
        self.arrive()?;
        let result = self.inner.query(q)?;
        self.counters.objects_exported(result.top_level().len());
        Ok(result)
    }

    fn query_rows(&self, q: &Rule, vars: &[ExtractVar]) -> Result<Rows, WrapperError> {
        self.arrive()?;
        let rows = self.inner.query_rows(q, vars)?;
        self.counters.objects_exported(rows.rows.len());
        Ok(rows)
    }
}

impl FaultInjectingWrapper {
    /// What every query meets before the inner source sees it: the plan's
    /// latency, then its fault for this call.
    fn arrive(&self) -> Result<(), WrapperError> {
        let call_index = self.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.query_received();
        if self.plan.latency_ms > 0 {
            match &self.clock {
                Some(c) => c.advance(self.plan.latency_ms),
                None => std::thread::sleep(std::time::Duration::from_millis(self.plan.latency_ms)),
            }
        }
        if self.plan.injects_fault(call_index) {
            self.counters.fault_injected();
            return Err(self.plan.error(self.inner.name(), call_index));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::whois_wrapper;
    use msl::parse_query;

    fn decorated(plan: FaultPlan) -> FaultInjectingWrapper {
        FaultInjectingWrapper::new(Arc::new(whois_wrapper()), plan)
    }

    #[test]
    fn fail_first_n_then_recovers() {
        let w = decorated(FaultPlan::none().fail_first(2));
        let q = parse_query("X :- X:<person {}>@whois").unwrap();
        assert!(matches!(
            w.query(&q).unwrap_err(),
            WrapperError::Unavailable(_)
        ));
        assert!(w.query(&q).is_err());
        let res = w.query(&q).unwrap();
        assert_eq!(res.top_level().len(), 2);
        let m = w.metrics().unwrap();
        assert_eq!(m.queries_received, 3);
        assert_eq!(m.faults_injected, 2);
        assert_eq!(m.objects_exported, 2);
        assert_eq!(w.calls_seen(), 3);
    }

    #[test]
    fn fail_every_kth() {
        let plan = FaultPlan::none().fail_every(3);
        let pattern: Vec<bool> = (0..9).map(|i| plan.injects_fault(i)).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn always_down_and_timeout_kind() {
        let plan = FaultPlan::always_down().timeouts();
        assert!(plan.injects_fault(0) && plan.injects_fault(1_000_000));
        let w = decorated(plan);
        let q = parse_query("X :- X:<person {}>@whois").unwrap();
        let err = w.query(&q).unwrap_err();
        assert!(matches!(err, WrapperError::Timeout(_)), "{err}");
        assert!(err.is_transient());
    }

    #[test]
    fn seeded_flakiness_is_deterministic() {
        let a = FaultPlan::none().flaky(0.5, 42);
        let b = FaultPlan::none().flaky(0.5, 42);
        let seq_a: Vec<bool> = (0..64).map(|i| a.injects_fault(i)).collect();
        let seq_b: Vec<bool> = (0..64).map(|i| b.injects_fault(i)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        let fails = seq_a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fails), "p=0.5 over 64 calls: {fails}");
        // A different seed gives a different schedule.
        let c = FaultPlan::none().flaky(0.5, 43);
        let seq_c: Vec<bool> = (0..64).map(|i| c.injects_fault(i)).collect();
        assert_ne!(seq_a, seq_c);
        // Extremes are exact.
        assert!((0..64).all(|i| FaultPlan::none().flaky(1.0, 7).injects_fault(i)));
        assert!(!(0..64).any(|i| FaultPlan::none().injects_fault(i)));
    }

    #[test]
    fn virtual_latency_advances_shared_clock_without_sleeping() {
        let clock = Arc::new(VirtualClock::new());
        let w = decorated(FaultPlan::none().latency_ms(80)).with_virtual_clock(Arc::clone(&clock));
        let q = parse_query("X :- X:<person {}>@whois").unwrap();
        let wall = Instant::now();
        w.query(&q).unwrap();
        w.query(&q).unwrap();
        assert_eq!(clock.now_ms(), 160);
        assert!(wall.elapsed().as_millis() < 80, "latency must be virtual");
    }

    #[test]
    fn passthrough_of_name_caps_stats() {
        let w = decorated(FaultPlan::none());
        assert_eq!(w.name().as_str(), "whois");
        assert!(w.capabilities().wildcards);
        assert!(w.stats().is_none()); // whois exposes none by default
        assert_eq!(w.plan(), &FaultPlan::none());
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn microseconds_agree_with_milliseconds() {
        let v = VirtualClock::new();
        v.advance(7);
        assert_eq!(v.now_us(), 7_000);
        let c = SystemClock::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (us, ms) = (c.now_us(), c.now_ms());
        assert!(us >= 2_000 && us / 1000 <= ms, "{us}µs, {ms}ms");
    }
}
