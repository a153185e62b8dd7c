//! # escudo-core
//!
//! The ESCUDO access-control model from *"ESCUDO: A Fine-grained Protection Model for
//! Web Browsers"* (Jayaraman, Du, Rajagopalan, Chapin — ICDCS 2010).
//!
//! ESCUDO treats every web page as a small "system": the page's principals
//! (script-invoking and HTTP-request-issuing constructs) and objects (DOM regions,
//! cookies, native-code APIs, browser state) are placed in per-page
//! [hierarchical protection rings](Ring) chosen by the web application, optionally
//! refined by per-object [access-control lists](Acl). An access `⟨P ▷ O⟩` is permitted
//! if and only if **all three** of the following hold:
//!
//! 1. the **origin rule** — principal and object share an [`Origin`],
//! 2. the **ring rule** — `R(P) ≤ R(O)` (the principal is at least as privileged),
//! 3. the **ACL rule** — `R(P) ≤ ⊓(O, ▷)` (the object's ACL admits the operation).
//!
//! This crate contains the policy model itself, independent of any browser engine:
//!
//! * [`Ring`], [`Acl`], [`Operation`] — the protection-ring algebra,
//! * [`Origin`] — the same-origin triple `⟨scheme, host, port⟩`,
//! * [`ObjectContext`] / [`PrincipalContext`] — the security contexts the browser
//!   extracts at parse time and tracks for the lifetime of the page,
//! * [`policy`] — the decision procedure (and the same-origin-policy baseline),
//! * [`engine`] — the pluggable [`PolicyEngine`]: the decision procedure plus a
//!   counter, the single decision core every enforcement point goes through,
//! * [`config`] — the AC-tag attribute format and the optional HTTP headers used to
//!   label cookies and native APIs,
//! * [`scoping`] — the scoping rule that clamps children to their parent's privilege,
//! * [`tenant`] — the multi-tenant control plane: generation-swapped engine
//!   handles for hot policy reload, per-tenant token-bucket admission control
//!   and the tenant registry,
//! * [`nonce`] — markup-randomization nonces that defeat node-splitting attacks,
//! * [`taxonomy`] — the principal/object inventory of the paper's Table 1.
//!
//! # Example
//!
//! ```
//! use escudo_core::{Acl, Operation, Origin, Ring};
//! use escudo_core::context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
//! use escudo_core::policy::{decide, PolicyMode};
//!
//! let origin = Origin::new("http", "blog.example", 80);
//!
//! // A trusted application script running in ring 1.
//! let app_script = PrincipalContext::new(PrincipalKind::Script, origin.clone(), Ring::new(1));
//! // A user comment region mapped to ring 3, writable only from rings 0–2.
//! let comment = ObjectContext::new(ObjectKind::DomElement, origin.clone(), Ring::new(3))
//!     .with_acl(Acl::new(Ring::new(3), Ring::new(2), Ring::new(3)));
//!
//! assert!(decide(PolicyMode::Escudo, &app_script, &comment, Operation::Write).is_allowed());
//!
//! // A script instantiated from the comment itself runs in ring 3 and may not
//! // modify the comment region (write ACL requires ring ≤ 2).
//! let comment_script = PrincipalContext::new(PrincipalKind::Script, origin, Ring::new(3));
//! assert!(!decide(PolicyMode::Escudo, &comment_script, &comment, Operation::Write).is_allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acl;
pub mod config;
pub mod context;
pub mod engine;
pub mod error;
pub mod nonce;
pub mod operation;
pub mod origin;
pub mod policy;
pub mod ring;
pub mod scoping;
pub mod taxonomy;
pub mod tenant;

pub use acl::Acl;
pub use context::{ObjectContext, ObjectKind, PrincipalContext, PrincipalKind};
pub use engine::{engine_for_mode, EngineStats, EscudoEngine, PolicyEngine, SameOriginEngine};
pub use error::{ConfigError, PolicyError};
pub use nonce::Nonce;
pub use operation::Operation;
pub use origin::Origin;
pub use policy::{decide, Decision, DenyReason, PolicyMode};
pub use ring::Ring;
pub use tenant::{
    AdmissionControl, AdmissionStats, Clock, EngineGeneration, EngineHandle, EngineReader,
    ManualClock, MonotonicClock, Tenant, TenantConfig, TenantRegistry,
};
