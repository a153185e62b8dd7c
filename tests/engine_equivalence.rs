//! Engine/decide equivalence: the pluggable engines, and the reference monitor's
//! batch path above them, must return **byte-identical** decisions to the
//! `escudo_core::policy::decide` free function.
//!
//! The grid is exhaustive over rings 0..=3 for principal and object, every
//! `Operation`, same- and cross-origin pairs, a spread of ACL variants, and both
//! principal exemption cases (script vs browser chrome).

use escudo::browser::Erm;
use escudo::core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
use escudo::core::{
    decide, Acl, EscudoEngine, Operation, Origin, PolicyEngine, PolicyMode, Ring, SameOriginEngine,
};

fn site() -> Origin {
    Origin::new("http", "app.example", 80)
}

fn other_site() -> Origin {
    Origin::new("http", "evil.example", 80)
}

/// The ACL variants of the grid: permissive, ring-0-only, uniform bounds, and mixed
/// per-operation bounds.
fn acl_variants() -> Vec<Acl> {
    let mut acls = vec![Acl::permissive(), Acl::ring_zero_only()];
    for ring in 0u16..=3 {
        acls.push(Acl::uniform(Ring::new(ring)));
    }
    acls.push(Acl::new(Ring::new(2), Ring::new(0), Ring::new(2)));
    acls.push(Acl::new(Ring::new(0), Ring::new(3), Ring::new(1)));
    acls.push(Acl::new(Ring::new(3), Ring::new(1), Ring::new(0)));
    acls
}

/// Every (principal, object, operation) combination of the grid.
fn grid() -> Vec<(PrincipalContext, ObjectContext, Operation)> {
    let mut checks = Vec::new();
    for p_ring in 0u16..=3 {
        for o_ring in 0u16..=3 {
            for acl in acl_variants() {
                for cross in [false, true] {
                    for kind in [PrincipalKind::Script, PrincipalKind::Browser] {
                        for op in Operation::ALL {
                            let p_origin = if cross { other_site() } else { site() };
                            let principal =
                                PrincipalContext::new(kind, p_origin, Ring::new(p_ring));
                            let object = ObjectContext::new(
                                ObjectKind::DomElement,
                                site(),
                                Ring::new(o_ring),
                            )
                            .with_acl(acl);
                            checks.push((principal, object, op));
                        }
                    }
                }
            }
        }
    }
    checks
}

#[test]
fn uncached_escudo_engine_matches_decide() {
    let engine = EscudoEngine::new();
    let grid = grid();
    // 4 principal rings × 4 object rings × 9 ACLs × 2 origins × 2 kinds × 3 ops.
    assert_eq!(grid.len(), 1728);
    for (principal, object, op) in &grid {
        assert_eq!(
            engine.decide(principal, object, *op),
            decide(PolicyMode::Escudo, principal, object, *op),
            "mismatch: {principal} / {object} / {op}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.decisions, grid.len() as u64);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn same_origin_engine_matches_same_origin_mode() {
    let engine = SameOriginEngine::new();
    for (principal, object, op) in &grid() {
        assert_eq!(
            engine.decide(principal, object, *op),
            decide(PolicyMode::SameOriginOnly, principal, object, *op),
            "sop mismatch: {principal} / {object} / {op}"
        );
    }
}

#[test]
fn erm_check_many_matches_decide_for_the_whole_grid() {
    let grid = grid();
    let batch: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
        grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
        let decisions = Erm::new(mode).without_audit().check_many(&batch);
        assert_eq!(decisions.len(), grid.len());
        for ((principal, object, op), got) in grid.iter().zip(&decisions) {
            assert_eq!(*got, decide(mode, principal, object, *op));
        }
    }
}
