//! The ESCUDO Reference Monitor (ERM) — a thin enforcement facade.
//!
//! The prototype's ERM "enforces access-decisions based on the security contexts" and
//! "is spread over several places because the places to embed the checks is specific
//! to the object type". In this reproduction every enforcement point funnels into
//! [`Erm::check`], but the *decision* itself is made by a shared
//! [`PolicyEngine`](escudo_core::PolicyEngine) — the ERM only enforces, audits and
//! counts. One engine (and its decision counter) can back every page of a session.
//!
//! The audit log is a **bounded ring buffer**: long-running workloads keep the most
//! recent [`Erm::audit_capacity`] records and count what was dropped, so memory no
//! longer grows without limit.
//!
//! In the multi-tenant control plane the monitor binds to a [`Tenant`] instead of a
//! fixed engine ([`Erm::with_tenant`]): every mediation entry point revalidates the
//! tenant's generation-swapped [`EngineHandle`](escudo_core::EngineHandle) **once**,
//! so a hot policy reload lands between mediation plans, never inside one — and the
//! tenant's token-bucket [`AdmissionControl`](escudo_core::AdmissionControl) is
//! enforced here, covering browser- and script-initiated paths alike. A throttled
//! check is denied fail-closed with [`DenyReason::Throttled`].

use std::collections::VecDeque;
use std::sync::Arc;

use escudo_core::policy::AuditRecord;
use escudo_core::tenant::{AdmissionStats, EngineReader, Tenant};
use escudo_core::{
    engine_for_mode, Decision, DenyReason, EngineStats, ObjectContext, Operation, Origin,
    PolicyEngine, PolicyMode, PrincipalContext,
};
use escudo_net::{SharedCookieJar, Url};

/// A cookie candidate for batch mediation: `(name, value, origin)`.
pub type CookieCandidate = (String, String, Origin);

/// Default bound on retained audit records.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// What the monitor decides through: a fixed engine, or a tenant whose
/// generation-swapped handle is revalidated at each mediation entry point.
#[derive(Debug, Clone)]
enum EngineBinding {
    /// One engine for the monitor's lifetime (the library deployment).
    Static(Arc<dyn PolicyEngine>),
    /// A control-plane tenant: engine reads go through a generation-checked
    /// reader, admission goes through the tenant's token bucket.
    Tenant {
        tenant: Arc<Tenant>,
        reader: EngineReader,
    },
}

/// The reference monitor: a facade over a shared [`PolicyEngine`] plus a bounded
/// audit ring buffer and plain counters.
#[derive(Debug, Clone)]
pub struct Erm {
    binding: EngineBinding,
    audit: VecDeque<AuditRecord>,
    audit_capacity: usize,
    audit_dropped: u64,
    checks: u64,
    denials: u64,
    /// When `false`, the audit log is not retained (used by the performance benchmarks
    /// so bookkeeping measures only what the enforcement itself costs).
    record_audit: bool,
}

impl Erm {
    /// Creates a reference monitor enforcing the given policy mode with a fresh engine
    /// ([`EscudoEngine`](escudo_core::EscudoEngine) for [`PolicyMode::Escudo`], the
    /// [`SameOriginEngine`](escudo_core::SameOriginEngine) baseline otherwise).
    #[must_use]
    pub fn new(mode: PolicyMode) -> Self {
        Erm::with_engine(engine_for_mode(mode))
    }

    /// Creates a reference monitor enforcing through an existing (possibly shared)
    /// engine — this is how several pages, sessions or tenants share one decision
    /// counter.
    #[must_use]
    pub fn with_engine(engine: Arc<dyn PolicyEngine>) -> Self {
        Erm::with_binding(EngineBinding::Static(engine))
    }

    /// Creates a reference monitor bound to a control-plane tenant: decisions go
    /// through the tenant's generation-swapped engine handle (revalidated once per
    /// mediation plan, so a hot reload is never observed mid-plan), and every plan
    /// first passes the tenant's admission bucket.
    #[must_use]
    pub fn with_tenant(tenant: Arc<Tenant>) -> Self {
        let reader = EngineReader::new(tenant.handle().clone());
        Erm::with_binding(EngineBinding::Tenant { tenant, reader })
    }

    fn with_binding(binding: EngineBinding) -> Self {
        Erm {
            binding,
            audit: VecDeque::new(),
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
            audit_dropped: 0,
            checks: 0,
            denials: 0,
            record_audit: true,
        }
    }

    /// Disables audit-record retention (counters are still kept).
    #[must_use]
    pub fn without_audit(mut self) -> Self {
        self.record_audit = false;
        self
    }

    /// Bounds the audit ring buffer to `capacity` records (builder style). The oldest
    /// records are dropped first; [`Erm::audit_dropped`] counts them. A capacity of 0
    /// retains nothing (like [`Erm::without_audit`], but still counts drops).
    #[must_use]
    pub fn with_audit_capacity(mut self, capacity: usize) -> Self {
        self.audit_capacity = capacity;
        while self.audit.len() > capacity {
            self.audit.pop_front();
            self.audit_dropped += 1;
        }
        self
    }

    /// The policy mode in force. For a tenant binding this is the mode of the
    /// generation pinned by the last mediation (a hot reload shows up here once
    /// the next plan revalidates the handle).
    #[must_use]
    pub fn mode(&self) -> PolicyMode {
        self.engine().mode()
    }

    /// The decision engine: the static engine, or the tenant engine generation
    /// pinned by the last mediation.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn PolicyEngine> {
        match &self.binding {
            EngineBinding::Static(engine) => engine,
            EngineBinding::Tenant { reader, .. } => reader.pinned().engine(),
        }
    }

    /// The bound tenant, when this monitor enforces for one.
    #[must_use]
    pub fn tenant(&self) -> Option<&Arc<Tenant>> {
        match &self.binding {
            EngineBinding::Static(_) => None,
            EngineBinding::Tenant { tenant, .. } => Some(tenant),
        }
    }

    /// The engine generation the last mediation plan was pinned to (`None` for a
    /// static binding).
    #[must_use]
    pub fn generation(&self) -> Option<u64> {
        match &self.binding {
            EngineBinding::Static(_) => None,
            EngineBinding::Tenant { reader, .. } => Some(reader.pinned().generation()),
        }
    }

    /// The bound tenant's admission-bucket counters (`None` for a static binding).
    #[must_use]
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.tenant().map(|tenant| tenant.admission().stats())
    }

    /// Statistics of the underlying engine.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine().stats()
    }

    /// Revalidates a tenant binding against the handle's published generation.
    /// Called exactly once at each public mediation entry point: everything a
    /// single plan decides afterwards reads the pinned generation, so the plan
    /// is generation-consistent even while a hot reload lands concurrently.
    fn sync_generation(&mut self) {
        if let EngineBinding::Tenant { reader, .. } = &mut self.binding {
            reader.refresh();
        }
    }

    /// Requests admission for `n` checks from the bound tenant's token bucket.
    /// Static bindings admit everything.
    fn admit(&self, n: u64) -> bool {
        match &self.binding {
            EngineBinding::Static(_) => true,
            EngineBinding::Tenant { tenant, .. } => tenant.admission().try_admit(n),
        }
    }

    fn record(&mut self, record: AuditRecord) {
        if self.audit.len() >= self.audit_capacity {
            if self.audit_capacity == 0 {
                self.audit_dropped += 1;
                return;
            }
            self.audit.pop_front();
            self.audit_dropped += 1;
        }
        self.audit.push_back(record);
    }

    /// Mediates one access. Returns the decision and records it. A tenant-bound
    /// monitor revalidates the engine generation first and passes the tenant's
    /// admission bucket; a throttled check is denied with
    /// [`DenyReason::Throttled`].
    pub fn check(
        &mut self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        operation: Operation,
    ) -> Decision {
        self.sync_generation();
        self.decide_batch(&[(principal, object, operation)])
            .pop()
            .expect("one check yields one decision")
    }

    /// Batch mediation: decides the slice in order and returns the decisions, with
    /// counting and auditing identical to repeated [`Erm::check`] calls. For a
    /// tenant binding the whole batch is decided by **one** engine generation
    /// (pinned before the first decision) and admitted all-or-nothing by the
    /// token bucket.
    pub fn check_many(
        &mut self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        self.sync_generation();
        self.decide_batch(checks)
    }

    /// Decides one already-pinned mediation plan: no generation revalidation
    /// happens here, so every caller that syncs once and then issues one or more
    /// `decide_batch` calls stays on a single generation for the whole plan.
    fn decide_batch(
        &mut self,
        checks: &[(&PrincipalContext, &ObjectContext, Operation)],
    ) -> Vec<Decision> {
        let decisions = if self.admit(checks.len() as u64) {
            let engine = self.engine();
            checks
                .iter()
                .map(|(principal, object, operation)| engine.decide(principal, object, *operation))
                .collect()
        } else {
            vec![Decision::Deny(DenyReason::Throttled); checks.len()]
        };
        let mode = self.mode();
        self.checks += checks.len() as u64;
        for ((principal, object, operation), decision) in checks.iter().zip(&decisions) {
            if decision.is_denied() {
                self.denials += 1;
            }
            if self.record_audit {
                self.record(AuditRecord {
                    principal: (*principal).clone(),
                    object: (*object).clone(),
                    operation: *operation,
                    mode,
                    decision: decision.clone(),
                });
            }
        }
        decisions
    }

    /// Batch-mediates `operation` over cookie candidates, returning the `name=value`
    /// pairs the policy admits (in candidate order). `object_for` supplies the
    /// cookie's security context — the page's context table, or the browser-wide
    /// policy store when no page is loaded. Under the same-origin baseline every
    /// in-scope cookie is admitted without consulting the engine: that is exactly
    /// the legacy behaviour CSRF exploits.
    ///
    /// This is the single implementation behind both browser-initiated and
    /// script-initiated requests, so enforcement can never diverge between them.
    pub fn mediate_cookies(
        &mut self,
        candidates: &[CookieCandidate],
        operation: Operation,
        principal: &PrincipalContext,
        object_for: impl Fn(&str, Origin) -> ObjectContext,
    ) -> Vec<String> {
        self.sync_generation();
        if self.mode() == PolicyMode::SameOriginOnly {
            // The baseline consults no engine, but admission still meters the
            // mediation (fail-closed: a throttled plan attaches nothing).
            if !self.admit(candidates.len() as u64) {
                return Vec::new();
            }
            return candidates
                .iter()
                .map(|(name, value, _)| format!("{name}={value}"))
                .collect();
        }
        let objects: Vec<ObjectContext> = candidates
            .iter()
            .map(|(name, _, origin)| object_for(name, origin.clone()))
            .collect();
        let checks: Vec<(&PrincipalContext, &ObjectContext, Operation)> = objects
            .iter()
            .map(|object| (principal, object, operation))
            .collect();
        self.decide_batch(&checks)
            .iter()
            .zip(candidates)
            .filter(|(decision, _)| decision.is_allowed())
            .map(|(_, (name, value, _))| format!("{name}={value}"))
            .collect()
    }

    /// Batch-mediates `operation` over every cookie the shared jar holds in scope for
    /// a request to `url`, in RFC 6265 §5.4 attach order (longest path first, then
    /// earliest creation). One snapshot pass over the jar's shards collects the
    /// candidates, then one [`Erm::mediate_cookies`] batch decides them — the jar's
    /// scope answer and the engine's `use` decision stay cleanly split, and both
    /// browser- and script-initiated requests funnel through this same path.
    pub fn mediate_jar(
        &mut self,
        jar: &SharedCookieJar,
        url: &Url,
        operation: Operation,
        principal: &PrincipalContext,
        object_for: impl Fn(&str, Origin) -> ObjectContext,
    ) -> Vec<String> {
        let candidates: Vec<CookieCandidate> = jar
            .candidates_for(url)
            .into_iter()
            .map(|c| {
                let origin = c.origin();
                (c.name, c.value, origin)
            })
            .collect();
        self.mediate_cookies(&candidates, operation, principal, object_for)
    }

    /// Page-batch jar mediation: decides the cookie attachments of *several*
    /// requests — one per planned subresource — in **one** engine batch, walking
    /// the jar once per distinct URL instead of once per request. Returns the
    /// admitted `name=value` pairs per request, in input order (each request's
    /// pairs in RFC 6265 §5.4 attach order).
    ///
    /// This is phase 1 of the pipelined subresource loader: every decision is
    /// fixed here, deterministically, *before* any fetch is dispatched, so the
    /// mediation outcome cannot depend on transport completion order. Counting
    /// and auditing are identical to issuing one [`Erm::mediate_jar`] call per
    /// request in input order.
    pub fn mediate_jar_many(
        &mut self,
        jar: &SharedCookieJar,
        requests: &[(&Url, &PrincipalContext)],
        operation: Operation,
        object_for: impl Fn(&str, Origin) -> ObjectContext,
    ) -> Vec<Vec<String>> {
        self.sync_generation();
        // One jar walk per distinct URL (a page's subresources typically share a
        // handful of origins, so a linear probe of the seen-list is cheap).
        let mut unique_urls: Vec<&Url> = Vec::new();
        let mut candidate_sets: Vec<Vec<CookieCandidate>> = Vec::new();
        let mut set_index: Vec<usize> = Vec::with_capacity(requests.len());
        for (url, _) in requests {
            let index = match unique_urls.iter().position(|u| *u == *url) {
                Some(index) => index,
                None => {
                    unique_urls.push(url);
                    candidate_sets.push(
                        jar.candidates_for(url)
                            .into_iter()
                            .map(|c| {
                                let origin = c.origin();
                                (c.name, c.value, origin)
                            })
                            .collect(),
                    );
                    candidate_sets.len() - 1
                }
            };
            set_index.push(index);
        }

        // The same-origin baseline attaches every in-scope candidate without
        // consulting the engine — exactly like `mediate_cookies`, including the
        // admission meter (all-or-nothing over the whole plan).
        if self.mode() == PolicyMode::SameOriginOnly {
            let total: usize = set_index.iter().map(|&i| candidate_sets[i].len()).sum();
            if !self.admit(total as u64) {
                return vec![Vec::new(); requests.len()];
            }
            return set_index
                .iter()
                .map(|&index| {
                    candidate_sets[index]
                        .iter()
                        .map(|(name, value, _)| format!("{name}={value}"))
                        .collect()
                })
                .collect();
        }

        // Flatten every (request, candidate) pair into one engine batch.
        let objects: Vec<ObjectContext> = set_index
            .iter()
            .flat_map(|&index| {
                candidate_sets[index]
                    .iter()
                    .map(|(name, _, origin)| object_for(name, origin.clone()))
            })
            .collect();
        let mut checks: Vec<(&PrincipalContext, &ObjectContext, Operation)> =
            Vec::with_capacity(objects.len());
        let mut remaining_objects = objects.as_slice();
        for ((_, principal), &index) in requests.iter().zip(&set_index) {
            let (head, tail) = remaining_objects.split_at(candidate_sets[index].len());
            checks.extend(head.iter().map(|object| (*principal, object, operation)));
            remaining_objects = tail;
        }
        let decisions = self.decide_batch(&checks);

        // Split the flat decision vector back into per-request attachments.
        let mut offset = 0;
        set_index
            .iter()
            .map(|&index| {
                let candidates = &candidate_sets[index];
                let attached = decisions[offset..offset + candidates.len()]
                    .iter()
                    .zip(candidates)
                    .filter(|(decision, _)| decision.is_allowed())
                    .map(|(_, (name, value, _))| format!("{name}={value}"))
                    .collect();
                offset += candidates.len();
                attached
            })
            .collect()
    }

    /// Convenience: mediate and convert a denial into an `Err(String)` describing the
    /// violated rule (used by the script host, where a denial becomes an exception).
    pub fn require(
        &mut self,
        principal: &PrincipalContext,
        object: &ObjectContext,
        operation: Operation,
    ) -> Result<(), String> {
        match self.check(principal, object, operation) {
            Decision::Allow => Ok(()),
            Decision::Deny(reason) => Err(format!(
                "{operation} on {label} denied ({reason})",
                label = if object.label.is_empty() {
                    object.kind.to_string()
                } else {
                    object.label.clone()
                }
            )),
        }
    }

    /// Number of checks performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of denials so far.
    #[must_use]
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// The retained audit records, oldest first (empty when audit retention is
    /// disabled). At most [`Erm::audit_capacity`] records are retained.
    #[must_use]
    pub fn audit(&self) -> &VecDeque<AuditRecord> {
        &self.audit
    }

    /// The bound on retained audit records.
    #[must_use]
    pub fn audit_capacity(&self) -> usize {
        self.audit_capacity
    }

    /// Number of audit records dropped because the ring buffer was full.
    #[must_use]
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped
    }

    /// Drains the audit log, returning the records retained so far (oldest first).
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        self.audit.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_core::context::{ObjectKind, PrincipalKind};
    use escudo_core::{Acl, EscudoEngine, Origin, Ring};

    fn site() -> Origin {
        Origin::new("http", "forum.example", 80)
    }

    fn script(ring: u16) -> PrincipalContext {
        PrincipalContext::new(PrincipalKind::Script, site(), Ring::new(ring))
    }

    fn cookie() -> ObjectContext {
        ObjectContext::new(ObjectKind::Cookie, site(), Ring::new(1))
            .with_acl(Acl::uniform(Ring::new(1)))
            .with_label("cookie sid")
    }

    #[test]
    fn checks_and_denials_are_counted_and_audited() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        assert!(erm
            .check(&script(1), &cookie(), Operation::Read)
            .is_allowed());
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_denied());
        assert_eq!(erm.checks(), 2);
        assert_eq!(erm.denials(), 1);
        assert_eq!(erm.audit().len(), 2);
        assert!(erm.audit()[1].decision.is_denied());
        let drained = erm.take_audit();
        assert_eq!(drained.len(), 2);
        assert!(erm.audit().is_empty());
    }

    #[test]
    fn require_names_the_object_and_rule() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        let err = erm
            .require(&script(3), &cookie(), Operation::Use)
            .unwrap_err();
        assert!(err.contains("cookie sid"), "got: {err}");
        assert!(err.contains("ring rule"), "got: {err}");
        assert!(erm.require(&script(0), &cookie(), Operation::Use).is_ok());
    }

    #[test]
    fn sop_mode_only_applies_the_origin_rule() {
        let mut erm = Erm::new(PolicyMode::SameOriginOnly);
        assert!(erm
            .check(&script(9), &cookie(), Operation::Write)
            .is_allowed());
        let foreign = PrincipalContext::new(
            PrincipalKind::Script,
            Origin::new("http", "evil.example", 80),
            Ring::new(0),
        );
        assert!(erm.check(&foreign, &cookie(), Operation::Read).is_denied());
        assert_eq!(erm.mode(), PolicyMode::SameOriginOnly);
    }

    #[test]
    fn audit_can_be_disabled_for_benchmarks() {
        let mut erm = Erm::new(PolicyMode::Escudo).without_audit();
        erm.check(&script(3), &cookie(), Operation::Read);
        assert_eq!(erm.checks(), 1);
        assert_eq!(erm.denials(), 1);
        assert!(erm.audit().is_empty());
    }

    #[test]
    fn audit_ring_buffer_is_bounded_and_counts_drops() {
        let mut erm = Erm::new(PolicyMode::Escudo).with_audit_capacity(3);
        for _ in 0..10 {
            erm.check(&script(1), &cookie(), Operation::Read);
        }
        assert_eq!(erm.checks(), 10);
        assert_eq!(erm.audit().len(), 3);
        assert_eq!(erm.audit_dropped(), 7);
        assert_eq!(erm.audit_capacity(), 3);
        // Zero capacity retains nothing but keeps counting.
        let mut none = Erm::new(PolicyMode::Escudo).with_audit_capacity(0);
        none.check(&script(1), &cookie(), Operation::Read);
        assert!(none.audit().is_empty());
        assert_eq!(none.audit_dropped(), 1);
    }

    #[test]
    fn shared_engine_counts_across_monitors() {
        let engine: Arc<dyn PolicyEngine> = Arc::new(EscudoEngine::new());
        let mut a = Erm::with_engine(Arc::clone(&engine));
        let mut b = Erm::with_engine(Arc::clone(&engine));
        a.check(&script(1), &cookie(), Operation::Read);
        // Same decision through a different monitor: counted on the shared engine.
        b.check(&script(1), &cookie(), Operation::Read);
        assert_eq!(a.engine_stats().decisions, 2);
        assert_eq!(b.engine_stats().decisions, 2);
    }

    #[test]
    fn mediate_jar_collects_in_attach_order_and_applies_the_policy() {
        use escudo_net::SetCookie;

        let jar = SharedCookieJar::new();
        let setting = Url::parse("http://forum.example/login.php").unwrap();
        jar.store(&setting, &SetCookie::new("sid", "s1"));
        jar.store(
            &setting,
            &SetCookie::new("admin", "a1").with_path("/forum/admin"),
        );
        jar.store(&setting, &SetCookie::new("data", "d1"));

        let mut erm = Erm::new(PolicyMode::Escudo);
        let request = Url::parse("http://forum.example/forum/admin/tool.php").unwrap();
        let ring1 = |_: &str, origin: Origin| {
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
                .with_acl(Acl::uniform(Ring::new(1)))
        };

        // §5.4 order: the longest-path cookie first, then creation order.
        let attached = erm.mediate_jar(&jar, &request, Operation::Use, &script(1), ring1);
        assert_eq!(attached, vec!["admin=a1", "sid=s1", "data=d1"]);
        assert_eq!(erm.checks(), 3);

        // A ring-3 principal is denied every ring-1 cookie — same batch path.
        let attached = erm.mediate_jar(&jar, &request, Operation::Use, &script(3), ring1);
        assert!(attached.is_empty());
        assert_eq!(erm.denials(), 3);
    }

    #[test]
    fn mediate_jar_many_matches_per_request_mediation() {
        use escudo_net::SetCookie;

        let jar = SharedCookieJar::new();
        let setting = Url::parse("http://forum.example/login.php").unwrap();
        jar.store(&setting, &SetCookie::new("sid", "s1"));
        jar.store(
            &setting,
            &SetCookie::new("admin", "a1").with_path("/forum/admin"),
        );
        jar.store(
            &Url::parse("http://img.example/a.png").unwrap(),
            &SetCookie::new("imgsid", "i1"),
        );

        let ring1 = |_: &str, origin: Origin| {
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
                .with_acl(Acl::uniform(Ring::new(1)))
        };
        let admin_url = Url::parse("http://forum.example/forum/admin/tool.php").unwrap();
        let img_url = Url::parse("http://img.example/b.png").unwrap();
        let p1 = script(1);
        let p3 = script(3);
        let img_principal = PrincipalContext::new(
            PrincipalKind::Script,
            Origin::new("http", "img.example", 80),
            Ring::new(1),
        );
        // Mixed principals, repeated URLs (the repeated URL's jar walk happens once).
        let requests: Vec<(&Url, &PrincipalContext)> = vec![
            (&admin_url, &p1),
            (&img_url, &img_principal),
            (&admin_url, &p3),
            (&admin_url, &p1),
        ];

        let mut batch_erm = Erm::new(PolicyMode::Escudo);
        let batched = batch_erm.mediate_jar_many(&jar, &requests, Operation::Use, ring1);

        let mut oracle_erm = Erm::new(PolicyMode::Escudo);
        let singly: Vec<Vec<String>> = requests
            .iter()
            .map(|(url, principal)| {
                oracle_erm.mediate_jar(&jar, url, Operation::Use, principal, ring1)
            })
            .collect();
        assert_eq!(batched, singly);
        // §5.4 order within a request, denial for the ring-3 principal.
        assert_eq!(batched[0], vec!["admin=a1", "sid=s1"]);
        assert_eq!(batched[1], vec!["imgsid=i1"]);
        assert!(batched[2].is_empty());
        // Counting and auditing identical to the per-request path.
        assert_eq!(batch_erm.checks(), oracle_erm.checks());
        assert_eq!(batch_erm.denials(), oracle_erm.denials());
        assert_eq!(batch_erm.audit().len(), oracle_erm.audit().len());

        // The same-origin baseline attaches every candidate without engine checks.
        let mut sop = Erm::new(PolicyMode::SameOriginOnly);
        let sop_batched = sop.mediate_jar_many(&jar, &requests, Operation::Use, ring1);
        assert_eq!(sop_batched[2], vec!["admin=a1", "sid=s1"]);
        assert_eq!(sop.checks(), 0);
    }

    #[test]
    fn tenant_binding_pins_a_generation_per_plan_and_throttles_fail_closed() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_core::DenyReason;

        // --- generation pinning: a reload is observed between plans, not inside.
        let tenant = Arc::new(Tenant::new("acme", TenantConfig::default()));
        let mut erm = Erm::with_tenant(Arc::clone(&tenant));
        assert_eq!(erm.generation(), Some(1));
        assert_eq!(erm.mode(), PolicyMode::Escudo);
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_denied());

        tenant.reload_with(
            TenantConfig::default()
                .with_mode(PolicyMode::SameOriginOnly)
                .build_engine(),
        );
        // Until the next mediation the monitor still reports the pinned epoch.
        assert_eq!(erm.generation(), Some(1));
        // The next plan revalidates: same check, new generation, SOP semantics.
        assert!(erm
            .check(&script(3), &cookie(), Operation::Read)
            .is_allowed());
        assert_eq!(erm.generation(), Some(2));
        assert_eq!(erm.mode(), PolicyMode::SameOriginOnly);
        assert_eq!(erm.tenant().unwrap().id(), "acme");

        // --- admission: burst 3, no refill — the 4th check is shed, denied
        // fail-closed with the distinct Throttled attribution, and audited.
        let throttled = Arc::new(Tenant::new(
            "metered",
            TenantConfig::default().with_admission(3, 0),
        ));
        let mut erm = Erm::with_tenant(Arc::clone(&throttled));
        for _ in 0..3 {
            assert!(erm
                .check(&script(1), &cookie(), Operation::Read)
                .is_allowed());
        }
        let shed = erm.check(&script(1), &cookie(), Operation::Read);
        assert_eq!(shed.deny_reason(), Some(&DenyReason::Throttled));
        assert_eq!(erm.checks(), 4);
        assert_eq!(erm.denials(), 1);
        assert!(erm.audit()[3].decision.is_denied());
        let stats = erm.admission_stats().unwrap();
        assert_eq!((stats.admitted, stats.rejected), (3, 1));

        // Batches are all-or-nothing: an empty bucket rejects the whole plan.
        let p1 = script(1);
        let object = cookie();
        let decisions = erm.check_many(&[(&p1, &object, Operation::Read); 2]);
        assert!(decisions
            .iter()
            .all(|d| d.deny_reason() == Some(&DenyReason::Throttled)));
        assert_eq!(erm.admission_stats().unwrap().rejected, 3);

        // A static binding exposes no tenant surface and never throttles.
        let unbound = Erm::new(PolicyMode::Escudo);
        assert!(unbound.tenant().is_none());
        assert_eq!(unbound.generation(), None);
        assert!(unbound.admission_stats().is_none());
    }

    #[test]
    fn sop_tenant_mediation_is_metered_too() {
        use escudo_core::tenant::{Tenant, TenantConfig};
        use escudo_net::SetCookie;

        let jar = SharedCookieJar::new();
        let url = Url::parse("http://forum.example/index.php").unwrap();
        jar.store(&url, &SetCookie::new("sid", "s1"));
        let tenant = Arc::new(Tenant::new(
            "legacy",
            TenantConfig::default()
                .with_mode(PolicyMode::SameOriginOnly)
                .with_admission(1, 0),
        ));
        let ring1 = |_: &str, origin: Origin| {
            ObjectContext::new(ObjectKind::Cookie, origin, Ring::new(1))
                .with_acl(Acl::uniform(Ring::new(1)))
        };
        let mut erm = Erm::with_tenant(Arc::clone(&tenant));
        // First plan: one candidate, one token — attaches.
        let attached = erm.mediate_jar(&jar, &url, Operation::Use, &script(1), ring1);
        assert_eq!(attached, vec!["sid=s1"]);
        // Bucket empty: the baseline fast path is still metered, attaches nothing.
        let attached = erm.mediate_jar(&jar, &url, Operation::Use, &script(1), ring1);
        assert!(attached.is_empty());
        assert_eq!(tenant.admission().stats().rejected, 1);
        // The batched plan path sheds whole as well.
        let p1 = script(1);
        let requests: Vec<(&Url, &PrincipalContext)> = vec![(&url, &p1)];
        let batched = erm.mediate_jar_many(&jar, &requests, Operation::Use, ring1);
        assert_eq!(batched, vec![Vec::<String>::new()]);
    }

    #[test]
    fn check_many_counts_and_audits_like_check() {
        let mut erm = Erm::new(PolicyMode::Escudo);
        let p1 = script(1);
        let p3 = script(3);
        let object = cookie();
        let decisions = erm.check_many(&[
            (&p1, &object, Operation::Read),
            (&p3, &object, Operation::Read),
        ]);
        assert!(decisions[0].is_allowed());
        assert!(decisions[1].is_denied());
        assert_eq!(erm.checks(), 2);
        assert_eq!(erm.denials(), 1);
        assert_eq!(erm.audit().len(), 2);
    }
}
