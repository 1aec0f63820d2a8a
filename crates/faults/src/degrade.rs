//! The sticky degraded-mode state machine.
//!
//! The paper's fallback semantics are per-operation: an offload that
//! misses its window is simply redone by the CPU. Under sustained
//! faults that policy wastes work — every page still pays the doomed
//! MMIO submission and SPM reservation before falling back. This
//! module adds the operational policy on top: a failure-rate estimator
//! over the last 32 offload outcomes drives a four-state machine,
//!
//! ```text
//!            rate ≥ 0.25                   rate ≥ 0.75
//!   [Nma] ─────────────────────▶ [Mixed] ─────────────────────▶ [CpuOnly]
//!     ▲                            │  ▲                            │
//!     │ rate ≤ 0.125               │  │ probe fails               │ 64 CPU ops
//!     │ (full window)              │  └──────────[Recovering]◀────┘
//!     └────────────────────────────┘       4 probes in a row ok
//!                                          └────────▶ [Nma]
//! ```
//!
//! `Nma` and `Mixed` keep attempting offloads (`Mixed` marks elevated
//! failure, useful as an operator signal and a gauge level); `CpuOnly`
//! stops attempting them entirely (sticky, so one good window cannot
//! flap the mode back); `Recovering` probes the NMA with one in 8
//! operations until enough consecutive probes succeed or one fails.
//! The thresholds are constants: every layer runs the same machine.

xfm_types::wire_enum! {
    /// The degradation level; its code (`level`) is the
    /// `xfm_degraded_mode` gauge (0 = healthy … 3 = recovering), which
    /// callers also mirror into an atomic.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub enum DegradedMode (level, from_level) {
        /// Healthy: every eligible operation attempts the NMA.
        #[default]
        Nma = "nma",
        /// Elevated failure rate: offloads still attempted, fallbacks
        /// expected.
        Mixed = "mixed",
        /// NMA path disabled; all work executes on the CPU.
        CpuOnly = "cpu_only",
        /// Probing the NMA with a fraction of operations.
        Recovering = "recovering",
    }
}

/// Offload outcomes the failure-rate window holds.
const WINDOW: u32 = 32;
const _: () = assert!(
    WINDOW >= 1 && WINDOW <= 64,
    "the window is one u64 of outcome bits"
);
/// The bits of the history word the window covers.
const WINDOW_MASK: u64 = if WINDOW >= 64 {
    u64::MAX
} else {
    (1 << WINDOW) - 1
};
/// Failure rate entering `Mixed` from `Nma`.
const MIXED_THRESHOLD: f64 = 0.25;
/// Failure rate entering `CpuOnly` from `Mixed` (or directly from `Nma`
/// on a catastrophic window).
const CPU_ONLY_THRESHOLD: f64 = 0.75;
/// CPU operations to sit out in `CpuOnly` before probing.
const COOLDOWN_OPS: u32 = 64;
/// In `Recovering`, probe the NMA once every this many operations.
const PROBE_INTERVAL: u32 = 8;
/// Consecutive successful probes required to return to `Nma`.
const RECOVER_WINDOW: u32 = 4;

/// The state machine. Single-owner (`&mut self`); wrap in a mutex to
/// share.
///
/// # Examples
///
/// ```
/// use xfm_faults::{DegradeController, DegradedMode};
///
/// let mut ctl = DegradeController::default();
/// assert_eq!(ctl.mode(), DegradedMode::Nma);
/// assert!(ctl.decide_offload());
/// // A solid run of failures escalates all the way to CPU-only.
/// for _ in 0..64 {
///     if ctl.decide_offload() {
///         ctl.record_offload(false);
///     } else {
///         ctl.record_cpu_op();
///     }
/// }
/// assert_eq!(ctl.mode(), DegradedMode::CpuOnly);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DegradeController {
    mode: DegradedMode,
    /// Rolling window of offload outcomes: bit = failure.
    history: u64,
    history_len: u32,
    failures: u32,
    cpu_ops_in_cooldown: u32,
    ops_since_probe: u32,
    probes_ok: u32,
    transitions: u64,
}

impl DegradeController {
    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// Mode changes so far.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Failure rate over the current window (0.0 when empty).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.history_len == 0 {
            0.0
        } else {
            f64::from(self.failures) / f64::from(self.history_len)
        }
    }

    /// Whether the next eligible operation should attempt the NMA.
    /// Mutates probe bookkeeping in `Recovering`.
    pub fn decide_offload(&mut self) -> bool {
        match self.mode {
            DegradedMode::Nma | DegradedMode::Mixed => true,
            DegradedMode::CpuOnly => false,
            DegradedMode::Recovering => {
                self.ops_since_probe += 1;
                if self.ops_since_probe >= PROBE_INTERVAL {
                    self.ops_since_probe = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records the outcome of an attempted offload (`success == true`
    /// means it actually executed on the NMA). Returns the new mode
    /// when this observation causes a transition.
    pub fn record_offload(&mut self, success: bool) -> Option<DegradedMode> {
        if self.mode == DegradedMode::Recovering {
            return if success {
                self.probes_ok += 1;
                if self.probes_ok >= RECOVER_WINDOW {
                    self.reset_history();
                    Some(self.switch(DegradedMode::Nma))
                } else {
                    None
                }
            } else {
                self.cpu_ops_in_cooldown = 0;
                Some(self.switch(DegradedMode::CpuOnly))
            };
        }
        self.push_outcome(!success);
        let rate = self.failure_rate();
        let warm = self.history_len >= WINDOW.div_ceil(2);
        match self.mode {
            DegradedMode::Nma if warm && rate >= CPU_ONLY_THRESHOLD => {
                self.cpu_ops_in_cooldown = 0;
                Some(self.switch(DegradedMode::CpuOnly))
            }
            DegradedMode::Nma if warm && rate >= MIXED_THRESHOLD => {
                Some(self.switch(DegradedMode::Mixed))
            }
            DegradedMode::Mixed if warm && rate >= CPU_ONLY_THRESHOLD => {
                self.cpu_ops_in_cooldown = 0;
                Some(self.switch(DegradedMode::CpuOnly))
            }
            DegradedMode::Mixed if self.history_len >= WINDOW && rate <= MIXED_THRESHOLD / 2.0 => {
                Some(self.switch(DegradedMode::Nma))
            }
            _ => None,
        }
    }

    /// Records an operation that ran on the CPU without attempting the
    /// NMA (ticks the `CpuOnly` cooldown). Returns the new mode when
    /// the cooldown expires.
    pub fn record_cpu_op(&mut self) -> Option<DegradedMode> {
        if self.mode == DegradedMode::CpuOnly {
            self.cpu_ops_in_cooldown += 1;
            if self.cpu_ops_in_cooldown >= COOLDOWN_OPS {
                self.probes_ok = 0;
                self.ops_since_probe = 0;
                return Some(self.switch(DegradedMode::Recovering));
            }
        }
        None
    }

    fn push_outcome(&mut self, failure: bool) {
        if self.history_len >= WINDOW {
            // Evict the oldest bit.
            let oldest = (self.history >> (WINDOW - 1)) & 1;
            self.failures -= oldest as u32;
            self.history = (self.history << 1) & WINDOW_MASK;
        } else {
            self.history <<= 1;
            self.history_len += 1;
        }
        if failure {
            self.history |= 1;
            self.failures += 1;
        }
    }

    fn reset_history(&mut self) {
        self.history = 0;
        self.history_len = 0;
        self.failures = 0;
    }

    fn switch(&mut self, to: DegradedMode) -> DegradedMode {
        self.mode = to;
        self.transitions += 1;
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails offloads until `CpuOnly`, then ticks the cooldown until
    /// `Recovering`.
    fn drive_to_recovering() -> DegradeController {
        let mut ctl = DegradeController::default();
        while ctl.mode() != DegradedMode::CpuOnly {
            ctl.decide_offload();
            ctl.record_offload(false);
        }
        while ctl.mode() != DegradedMode::Recovering {
            ctl.record_cpu_op();
        }
        ctl
    }

    /// The `xfm_degraded_mode` gauge values and the exposition names.
    #[test]
    fn level_round_trips_through_from_level() {
        use DegradedMode::*;
        for (mode, level, name) in [
            (Nma, 0, "nma"),
            (Mixed, 1, "mixed"),
            (CpuOnly, 2, "cpu_only"),
            (Recovering, 3, "recovering"),
        ] {
            assert_eq!((mode.level(), mode.name()), (level, name));
            assert_eq!(DegradedMode::from_level(level), Some(mode));
        }
        assert_eq!(DegradedMode::from_level(4), None);
    }

    #[test]
    fn healthy_stack_stays_in_nma() {
        let mut ctl = DegradeController::default();
        for _ in 0..1000 {
            assert!(ctl.decide_offload());
            assert_eq!(ctl.record_offload(true), None);
        }
        assert_eq!(ctl.mode(), DegradedMode::Nma);
        assert_eq!(ctl.transitions(), 0);
    }

    #[test]
    fn moderate_failures_enter_mixed_then_recover() {
        let mut ctl = DegradeController::default();
        // ~40% failures: above mixed (25%), below cpu-only (75%).
        for i in 0..64 {
            ctl.decide_offload();
            ctl.record_offload(i % 5 >= 2);
        }
        assert_eq!(ctl.mode(), DegradedMode::Mixed);
        // Clean run drains the window back below the hysteresis floor.
        for _ in 0..64 {
            ctl.decide_offload();
            ctl.record_offload(true);
        }
        assert_eq!(ctl.mode(), DegradedMode::Nma);
    }

    #[test]
    fn saturation_escalates_to_cpu_only_and_sticks() {
        let mut ctl = DegradeController::default();
        for _ in 0..16 {
            ctl.decide_offload();
            ctl.record_offload(false);
        }
        assert_eq!(ctl.mode(), DegradedMode::CpuOnly);
        // Sticky: no offload attempts until the cooldown expires.
        let mut ticks = 0;
        while ctl.mode() == DegradedMode::CpuOnly {
            assert!(!ctl.decide_offload());
            ctl.record_cpu_op();
            ticks += 1;
        }
        assert_eq!(ticks, COOLDOWN_OPS);
        assert_eq!(ctl.mode(), DegradedMode::Recovering);
    }

    #[test]
    fn recovery_probes_and_returns_to_nma() {
        let mut ctl = drive_to_recovering();
        // The device healed: every probe now succeeds.
        let mut probes = 0;
        while ctl.mode() == DegradedMode::Recovering {
            if ctl.decide_offload() {
                probes += 1;
                ctl.record_offload(true);
            }
        }
        assert_eq!(ctl.mode(), DegradedMode::Nma);
        assert_eq!(probes, RECOVER_WINDOW);
    }

    #[test]
    fn failed_probe_goes_back_to_cpu_only() {
        let mut ctl = drive_to_recovering();
        // Walk to the first probe and fail it.
        loop {
            if ctl.decide_offload() {
                ctl.record_offload(false);
                break;
            }
        }
        assert_eq!(ctl.mode(), DegradedMode::CpuOnly);
    }

    #[test]
    fn probe_interval_limits_recovering_offloads() {
        let mut ctl = drive_to_recovering();
        let attempts = (0..64).filter(|_| ctl.decide_offload()).count();
        assert_eq!(attempts, 64 / PROBE_INTERVAL as usize);
    }

    #[test]
    fn modes_order_by_severity_level() {
        assert!(DegradedMode::Nma.level() < DegradedMode::Mixed.level());
        assert!(DegradedMode::Mixed.level() < DegradedMode::CpuOnly.level());
    }
}
