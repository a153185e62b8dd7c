//! The pluggable policy engine: one decision core shared by every enforcement point.
//!
//! The paper's prototype spreads the ESCUDO Reference Monitor "over several places
//! because the places to embed the checks is specific to the object type". That is
//! fine for *enforcement* — the checks must live where the objects live — but the
//! *decision procedure* itself should exist exactly once, behind one interface, so it
//! can be shared and swapped independently of the enforcement points (WebSpec argues
//! for a single machine-checkable decision core; WebPol shows fine-grained policies
//! only scale when evaluation is factored out of enforcement).
//!
//! This module provides that factoring:
//!
//! * [`PolicyEngine`] — the trait every decision core implements: [`decide`] (one
//!   mediation) and [`stats`] (a decision counter),
//! * [`EscudoEngine`] — the production engine: the three rules of
//!   [`policy::decide`](crate::policy::decide) (origin, then ring, then ACL bound)
//!   plus one relaxed `decisions` counter,
//! * [`SameOriginEngine`] — the legacy same-origin baseline behind the same trait,
//! * [`engine_for_mode`] — the factory the browser uses to pick an engine.
//!
//! Both engines take `&self` and are `Send + Sync`, so one engine can be shared by
//! every page of a browsing session (or every session of a multi-tenant server) via
//! `Arc<dyn PolicyEngine>`.
//!
//! The engines hold no decision state. The rules are three comparisons, which
//! cost less than hashing two contexts to look up a memoised answer, so every call
//! recomputes the decision. The only shared mutable word is the counter.
//!
//! [`decide`]: PolicyEngine::decide
//! [`stats`]: PolicyEngine::stats
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use escudo_core::engine::{engine_for_mode, EscudoEngine, PolicyEngine};
//! use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
//! use escudo_core::{Acl, Operation, Origin, PolicyMode, Ring};
//!
//! let engine: Arc<dyn PolicyEngine> = engine_for_mode(PolicyMode::Escudo);
//! let origin = Origin::new("http", "blog.example", 80);
//! let script = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(3));
//! let post = ObjectContext::new(ObjectKind::DomElement, origin, Ring::new(1))
//!     .with_acl(Acl::uniform(Ring::new(1)));
//!
//! // A ring-3 script may not write a ring-1 post; every check is counted.
//! assert!(engine.decide(&script, &post, Operation::Write).is_denied());
//! assert!(engine.decide(&script, &post, Operation::Write).is_denied());
//! assert_eq!(engine.stats().decisions, 2);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::context::{ObjectContext, PrincipalContext};
use crate::operation::Operation;
use crate::policy::{decide, Decision, PolicyMode};

/// Counters describing an engine's work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total decisions requested.
    pub decisions: u64,
    /// Always 0: engines recompute every decision and memoise none. Kept for
    /// readers that report a hit count next to the decision count.
    pub cache_hits: u64,
}

impl EngineStats {
    fn counted(decisions: &AtomicU64) -> Self {
        EngineStats {
            decisions: decisions.load(Ordering::Relaxed),
            cache_hits: 0,
        }
    }
}

/// The single decision interface every enforcement point goes through.
///
/// Implementations must be cheap to share: `decide` takes `&self` and the trait
/// requires `Send + Sync`, so one engine instance can serve every page, thread and
/// tenant of a deployment behind an `Arc<dyn PolicyEngine>`.
pub trait PolicyEngine: Send + Sync + fmt::Debug {
    /// The policy mode this engine enforces.
    fn mode(&self) -> PolicyMode;

    /// Decides whether `principal` may perform `op` on `object`.
    ///
    /// Must return exactly what [`crate::policy::decide`] returns for this engine's
    /// mode.
    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision;

    /// The engine's counters.
    fn stats(&self) -> EngineStats;
}

/// The production ESCUDO engine: [`policy::decide`](crate::policy::decide) in
/// [`PolicyMode::Escudo`] plus a decision counter.
#[derive(Debug, Default)]
pub struct EscudoEngine {
    decisions: AtomicU64,
}

impl EscudoEngine {
    /// Creates the engine.
    #[must_use]
    pub fn new() -> Self {
        EscudoEngine::default()
    }
}

impl PolicyEngine for EscudoEngine {
    fn mode(&self) -> PolicyMode {
        PolicyMode::Escudo
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        decide(PolicyMode::Escudo, principal, object, op)
    }

    fn stats(&self) -> EngineStats {
        EngineStats::counted(&self.decisions)
    }
}

/// The legacy same-origin baseline behind the [`PolicyEngine`] trait.
///
/// It exists so the "without ESCUDO" configuration runs through exactly the same
/// enforcement plumbing as the full model.
#[derive(Debug, Default)]
pub struct SameOriginEngine {
    decisions: AtomicU64,
}

impl SameOriginEngine {
    /// Creates the baseline engine.
    #[must_use]
    pub fn new() -> Self {
        SameOriginEngine::default()
    }
}

impl PolicyEngine for SameOriginEngine {
    fn mode(&self) -> PolicyMode {
        PolicyMode::SameOriginOnly
    }

    fn decide(
        &self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        op: Operation,
    ) -> Decision {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        decide(PolicyMode::SameOriginOnly, principal, object, op)
    }

    fn stats(&self) -> EngineStats {
        EngineStats::counted(&self.decisions)
    }
}

/// The factory enforcement layers use: the full engine for [`PolicyMode::Escudo`],
/// the baseline for [`PolicyMode::SameOriginOnly`].
#[must_use]
pub fn engine_for_mode(mode: PolicyMode) -> Arc<dyn PolicyEngine> {
    match mode {
        PolicyMode::Escudo => Arc::new(EscudoEngine::new()),
        PolicyMode::SameOriginOnly => Arc::new(SameOriginEngine::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Acl;
    use crate::context::{ObjectKind, PrincipalKind};
    use crate::origin::Origin;
    use crate::ring::Ring;

    fn site() -> Origin {
        Origin::new("http", "app.example", 80)
    }

    fn other_site() -> Origin {
        Origin::new("http", "evil.example", 80)
    }

    fn script(ring: u16) -> PrincipalContext {
        PrincipalContext::new(PrincipalKind::Script, site(), Ring::new(ring))
    }

    fn dom(ring: u16, acl: Acl) -> ObjectContext {
        ObjectContext::new(ObjectKind::DomElement, site(), Ring::new(ring)).with_acl(acl)
    }

    #[test]
    fn decisions_match_the_free_function() {
        let engine = EscudoEngine::new();
        let object = dom(2, Acl::uniform(Ring::new(1)));
        for ring in 0u16..5 {
            for op in Operation::ALL {
                let expected = decide(PolicyMode::Escudo, &script(ring), &object, op);
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
                assert_eq!(engine.decide(&script(ring), &object, op), expected);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.decisions, 30);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn same_origin_engine_is_the_sop_baseline() {
        let engine = SameOriginEngine::new();
        let object = dom(0, Acl::ring_zero_only());
        // Ring is irrelevant under the SOP…
        assert!(engine
            .decide(&script(u16::MAX), &object, Operation::Write)
            .is_allowed());
        // …but a cross-origin principal is still denied.
        let foreign = PrincipalContext::new(PrincipalKind::Script, other_site(), Ring::new(0));
        assert!(engine
            .decide(&foreign, &object, Operation::Read)
            .is_denied());
        assert_eq!(engine.mode(), PolicyMode::SameOriginOnly);
        assert_eq!(engine.stats().decisions, 2);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn factory_picks_the_engine_by_mode() {
        assert_eq!(
            engine_for_mode(PolicyMode::Escudo).mode(),
            PolicyMode::Escudo
        );
        assert_eq!(
            engine_for_mode(PolicyMode::SameOriginOnly).mode(),
            PolicyMode::SameOriginOnly
        );
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
        let mut handles = Vec::new();
        for ring in 0u16..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let object = ObjectContext::new(
                    ObjectKind::DomElement,
                    Origin::new("http", "app.example", 80),
                    Ring::new(2),
                )
                .with_acl(Acl::uniform(Ring::new(1)));
                let p = PrincipalContext::new(
                    PrincipalKind::Script,
                    Origin::new("http", "app.example", 80),
                    Ring::new(ring),
                );
                for _ in 0..100 {
                    let got = engine.decide(&p, &object, Operation::Read);
                    assert_eq!(
                        got,
                        decide(PolicyMode::Escudo, &p, &object, Operation::Read)
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().expect("thread");
        }
        assert_eq!(engine.stats().decisions, 400);
    }
}
