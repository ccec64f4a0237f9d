//! Per-tenant isolation: namespaced workspaces, per-tenant default
//! limits, and in-flight caps.
//!
//! The `tenant` request field selects a namespace. Each tenant owns its
//! own [`Workspace`] — `q1` bound by tenant `a` and `q1` bound by tenant
//! `b` are different registrations that can never alias, because decision
//! problems are resolved to structural ASTs *before* they reach the
//! shared memo cache (which is keyed by the resolved problem, not by
//! names; cross-tenant sharing of structurally identical problems is
//! therefore safe and deliberate). Each tenant also carries its own
//! default [`Limits`] and an in-flight cap: a tenant at its cap is shed
//! immediately, so one noisy tenant saturates its own budget, not the
//! server.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use engine::{lock, Workspace};
use solver::{CancelToken, Limits};

use crate::{ServerConfig, DEFAULT_TENANT};

/// The server-wide count of admitted-but-unanswered requests, with a
/// condition variable so a draining shutdown can wait for zero.
pub(crate) struct Inflight {
    n: Mutex<usize>,
    zero: Condvar,
}

impl Inflight {
    pub(crate) fn new() -> Inflight {
        Inflight {
            n: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn inc(&self) {
        *lock(&self.n) += 1;
    }

    fn dec(&self) {
        let mut n = lock(&self.n);
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    /// The current count.
    pub(crate) fn count(&self) -> usize {
        *lock(&self.n)
    }

    /// Blocks until the count reaches zero or `deadline` elapses; returns
    /// whether zero was reached.
    pub(crate) fn wait_zero(&self, deadline: Duration) -> bool {
        let n = lock(&self.n);
        let (n, _) = self
            .zero
            .wait_timeout_while(n, deadline, |n| *n > 0)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *n == 0
    }
}

/// One tenant: a workspace namespace with its own limits and cap.
pub(crate) struct Tenant {
    /// The wire name.
    pub name: String,
    /// Metrics label: the configured name (leaked once, bounded by
    /// configuration) or `"other"` for tenants created dynamically —
    /// traffic must not be able to grow label cardinality.
    pub label: &'static str,
    /// The tenant's registrations. Readers resolve problems concurrently;
    /// registrations take the write lock briefly.
    pub workspace: RwLock<Workspace>,
    /// Default limits for this tenant's solves (its cancel token is the
    /// server's drain token, so a shutdown can cancel in-flight work).
    pub limits: Limits,
    /// Admitted-but-unanswered requests.
    inflight: AtomicUsize,
    /// The in-flight cap.
    pub max_inflight: usize,
}

impl Tenant {
    /// Tries to take one in-flight slot; `None` means the tenant is at
    /// its cap and the request must be shed. An admitted request also
    /// counts in the server-wide `global` tally the drain waits on.
    pub(crate) fn try_admit(self: &Arc<Tenant>, global: &Arc<Inflight>) -> Option<InflightGuard> {
        let admitted = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            return None;
        }
        global.inc();
        obs::metrics()
            .gauge("xsat_tenant_inflight", &[("tenant", self.label)])
            .add(1);
        Some(InflightGuard {
            tenant: self.clone(),
            global: global.clone(),
        })
    }

    /// The tenant's current in-flight count.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// Holds one tenant in-flight slot; dropping it (response sent, or the
/// request died with its connection) releases the slot, the server-wide
/// tally, and the gauge.
pub(crate) struct InflightGuard {
    tenant: Arc<Tenant>,
    global: Arc<Inflight>,
}

impl InflightGuard {
    /// The tenant this slot belongs to.
    pub(crate) fn tenant(&self) -> &Arc<Tenant> {
        &self.tenant
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        obs::metrics()
            .gauge("xsat_tenant_inflight", &[("tenant", self.tenant.label)])
            .sub(1);
        self.global.dec();
    }
}

/// The tenant registry: configured tenants are created up front with
/// leaked (bounded) metric labels; unknown tenants are created on first
/// use with the server defaults and the shared `"other"` label.
pub(crate) struct Tenants {
    map: Mutex<HashMap<String, Arc<Tenant>>>,
    default_limits: Limits,
    default_inflight: usize,
}

impl Tenants {
    /// Builds the registry from the server configuration. `drain` is the
    /// server's armed drain token, cloned into every tenant's default
    /// limits so shutdown can cancel whatever is still running.
    pub(crate) fn new(config: &ServerConfig, drain: &CancelToken) -> Tenants {
        let with_drain = |base: &Limits| Limits {
            cancel: drain.clone(),
            ..base.clone()
        };
        let default_limits = with_drain(&config.limits);
        let mut map = HashMap::new();
        for tc in &config.tenants {
            let label: &'static str = Box::leak(tc.name.clone().into_boxed_str());
            map.insert(
                tc.name.clone(),
                Arc::new(Tenant {
                    name: tc.name.clone(),
                    label,
                    workspace: RwLock::new(Workspace::new()),
                    limits: with_drain(tc.limits.as_ref().unwrap_or(&config.limits)),
                    inflight: AtomicUsize::new(0),
                    max_inflight: tc.max_inflight.unwrap_or(config.tenant_inflight),
                }),
            );
        }
        // The fallback tenant always exists, with its own label.
        map.entry(DEFAULT_TENANT.to_owned()).or_insert_with(|| {
            Arc::new(Tenant {
                name: DEFAULT_TENANT.to_owned(),
                label: DEFAULT_TENANT,
                workspace: RwLock::new(Workspace::new()),
                limits: default_limits.clone(),
                inflight: AtomicUsize::new(0),
                max_inflight: config.tenant_inflight,
            })
        });
        Tenants {
            map: Mutex::new(map),
            default_limits,
            default_inflight: config.tenant_inflight,
        }
    }

    /// Resolves (creating on first use) the tenant named `name`.
    pub(crate) fn resolve(&self, name: &str) -> Arc<Tenant> {
        let mut map = lock(&self.map);
        if let Some(t) = map.get(name) {
            return t.clone();
        }
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            label: "other",
            workspace: RwLock::new(Workspace::new()),
            limits: self.default_limits.clone(),
            inflight: AtomicUsize::new(0),
            max_inflight: self.default_inflight,
        });
        map.insert(name.to_owned(), tenant.clone());
        tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Tenants {
        let config = ServerConfig {
            tenant_inflight: 2,
            ..ServerConfig::default()
        };
        Tenants::new(&config, &CancelToken::armed())
    }

    #[test]
    fn inflight_cap_sheds_then_recovers() {
        let tenants = registry();
        let global = Arc::new(Inflight::new());
        let t = tenants.resolve("acme");
        let g1 = t.try_admit(&global).expect("slot 1");
        let _g2 = t.try_admit(&global).expect("slot 2");
        assert!(t.try_admit(&global).is_none(), "cap of 2 reached");
        assert_eq!(global.count(), 2);
        drop(g1);
        assert_eq!(global.count(), 1);
        assert!(t.try_admit(&global).is_some(), "slot released");
        assert!(
            !global.wait_zero(Duration::from_millis(10)),
            "still in flight"
        );
    }

    #[test]
    fn tenants_have_distinct_workspaces() {
        let tenants = registry();
        let a = tenants.resolve("a");
        let b = tenants.resolve("b");
        a.workspace
            .write()
            .unwrap()
            .register_query("q1", "child::a")
            .unwrap();
        b.workspace
            .write()
            .unwrap()
            .register_query("q1", "child::b")
            .unwrap();
        let qa = a.workspace.read().unwrap().resolve_query("q1").unwrap();
        let qb = b.workspace.read().unwrap().resolve_query("q1").unwrap();
        assert_ne!(qa, qb, "same name, different tenants, different ASTs");
        // Resolving again yields the same tenant object.
        assert!(Arc::ptr_eq(&a, &tenants.resolve("a")));
    }
}
