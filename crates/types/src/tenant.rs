//! Tenant identity and per-operation context for the multi-tenant
//! swap fabric.
//!
//! A far-memory deployment serves many independent workloads from one
//! shared compressed pool, so every swap-path operation needs to say
//! *whose* page it moves: quotas, accounting, admission control, and
//! per-tenant SLO reporting all hang off that identity. [`TenantId`]
//! names one workload, and [`OpContext`] carries it alongside each
//! operation through `SwapPlane`-shaped seams.
//!
//! The context is deliberately tiny (`Copy`, one word) so threading it
//! through the hot path costs registers, not allocations.

use core::fmt;

/// Stable identity of one tenant (workload) sharing the swap fabric.
///
/// Tenant 0 is reserved as [`TenantId::SYSTEM`]: the implicit owner of
/// every operation issued through the context-free legacy surface, and
/// of internal traffic (compaction, rebalancing) that no user tenant
/// should be billed for. Telemetry packs the id into an 8-bit wire
/// code, so deployments are limited to 255 user tenants per process —
/// far memory is shared by workload class, not by end user, so this is
/// not a practical bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(u16);

impl TenantId {
    /// The reserved system tenant: legacy context-free callers and
    /// internal plane traffic account here.
    pub const SYSTEM: Self = Self(0);

    /// Builds a tenant id from its raw index.
    #[must_use]
    pub const fn new(id: u16) -> Self {
        Self(id)
    }

    /// The raw tenant index.
    #[must_use]
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Stable 8-bit wire code for packing into telemetry words.
    ///
    /// Ids above 255 saturate to 255 on the wire; accounting stays
    /// exact (it keys on the full id), only packed lifecycle events
    /// alias in that regime.
    #[must_use]
    pub const fn code(self) -> u8 {
        if self.0 > u8::MAX as u16 {
            u8::MAX
        } else {
            self.0 as u8
        }
    }

    /// Inverse of [`TenantId::code`] for unpacking telemetry words.
    #[must_use]
    pub const fn from_code(code: u8) -> Self {
        Self(code as u16)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-operation context carried through the swap path: the tenant to
/// bill.
///
/// # Examples
///
/// ```
/// use xfm_types::{OpContext, TenantId};
///
/// let ctx = OpContext::for_tenant(TenantId::new(3));
/// assert_eq!(ctx.tenant, TenantId::new(3));
///
/// // The legacy context-free surface routes through the system tenant.
/// assert_eq!(OpContext::SYSTEM.tenant, TenantId::SYSTEM);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpContext {
    /// Tenant to account this operation to.
    pub tenant: TenantId,
}

impl OpContext {
    /// The implicit context of every context-free operation: the system
    /// tenant.
    pub const SYSTEM: Self = Self::for_tenant(TenantId::SYSTEM);

    /// A context billing `tenant`.
    #[must_use]
    pub const fn for_tenant(tenant: TenantId) -> Self {
        Self { tenant }
    }
}

impl Default for OpContext {
    fn default() -> Self {
        Self::SYSTEM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_round_trips() {
        let t = TenantId::new(7);
        assert_eq!(t.as_u16(), 7);
        assert_eq!(t.to_string(), "tenant7");
        assert_eq!(TenantId::from_code(t.code()), t);
        assert_ne!(t, TenantId::SYSTEM);
    }

    #[test]
    fn wire_code_saturates_above_u8() {
        assert_eq!(TenantId::new(255).code(), 255);
        assert_eq!(TenantId::new(256).code(), 255);
        assert_eq!(TenantId::new(u16::MAX).code(), 255);
    }

    #[test]
    fn system_context_is_default() {
        assert_eq!(OpContext::default(), OpContext::SYSTEM);
        assert_eq!(OpContext::SYSTEM.tenant, TenantId::SYSTEM);
    }
}
