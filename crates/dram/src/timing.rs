//! DRAM timing parameter sets.
//!
//! Values follow the conventions of JEDEC datasheets and gem5's DRAM
//! interface models. The paper's emulator (§7) uses gem5's DDR4-2400
//! interface with a 32 ms retention time, `tRFC = 410 ns`, and
//! `tBURST = 2.5 ns`; Table 1 gives DDR5 presets for 8/16/32 Gb devices.

use xfm_types::Nanos;

/// Number of REF commands per retention interval (JEDEC: 8192).
pub const REFS_PER_RETENTION: u64 = 8192;

/// A complete set of DRAM timing parameters for one device type.
///
/// All durations use picosecond resolution; see [`xfm_types::Nanos`].
///
/// # Examples
///
/// ```
/// use xfm_dram::DramTimings;
///
/// let t = DramTimings::paper_emulator();
/// assert_eq!(t.t_rfc.as_ns(), 410);
/// assert_eq!(t.t_refi.as_ns(), 3906); // 32 ms / 8192
/// // Banks are locked ~8% of the time (paper §4.3: 2.46 ms per 32 ms
/// // at tRFC = 300 ns; ~10.5% at 410 ns).
/// assert!(t.refresh_duty_cycle() > 0.08 && t.refresh_duty_cycle() < 0.12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// ACT-to-RD/WR delay (row to column command delay).
    pub t_rcd: Nanos,
    /// CAS latency (RD command to first data beat).
    pub t_cl: Nanos,
    /// Precharge latency.
    pub t_rp: Nanos,
    /// Row cycle time: ACT-to-ACT in the same bank (`t_ras + t_rp`).
    pub t_rc: Nanos,
    /// Time to transfer one burst (BL beats) on the data bus.
    pub t_burst: Nanos,
    /// Refresh cycle time: rank locked after each REF command.
    pub t_rfc: Nanos,
    /// Average interval between REF commands (retention / 8192).
    pub t_refi: Nanos,
    /// Bytes transferred per burst by a rank (chips in lockstep).
    pub burst_bytes: u32,
}

impl DramTimings {
    /// gem5-style DDR4-2400 interface parameters (the paper's emulator
    /// substrate), with the paper's methodology overrides applied:
    /// retention = 32 ms, `tRFC` = 410 ns, `tBURST` = 2.5 ns.
    #[must_use]
    pub fn paper_emulator() -> Self {
        Self {
            t_rcd: Nanos::from_ps(14_160),
            t_cl: Nanos::from_ps(14_160),
            t_rp: Nanos::from_ps(14_160),
            t_rc: Nanos::from_ps(46_160),
            t_burst: Nanos::from_ps(2_500),
            t_rfc: Nanos::from_ns(410),
            t_refi: Nanos::from_ms(32) / REFS_PER_RETENTION,
            burst_bytes: 64,
        }
    }

    fn ddr5_3200_base() -> Self {
        Self {
            // tRCD/tCL chosen so a 4 KiB conditional read matches the
            // paper's Fig. 6: tRCD + tCL + 32*tBURST = 110 ns.
            t_rcd: Nanos::from_ns(15),
            t_cl: Nanos::from_ns(15),
            t_rp: Nanos::from_ns(15),
            t_rc: Nanos::from_ns(46),
            // BL16 on a x8 device: 16 beats = 8 bus clocks = 5 ns... the
            // paper evaluates with a 16-byte burst length per chip taking
            // 2.5 ns on the 3200 MT/s bus (Fig. 6b).
            t_burst: Nanos::from_ps(2_500),
            t_rfc: Nanos::from_ns(295),
            t_refi: Nanos::from_ms(32) / REFS_PER_RETENTION,
            burst_bytes: 64,
        }
    }

    /// DDR5-3200, 8 Gb device (Table 1: `tRFC` = 195 ns).
    #[must_use]
    pub fn ddr5_3200_8gb() -> Self {
        Self {
            t_rfc: Nanos::from_ns(195),
            ..Self::ddr5_3200_base()
        }
    }

    /// DDR5-3200, 16 Gb device (Table 1: `tRFC` = 295 ns).
    #[must_use]
    pub fn ddr5_3200_16gb() -> Self {
        Self {
            t_rfc: Nanos::from_ns(295),
            ..Self::ddr5_3200_base()
        }
    }

    /// DDR5-3200, 32 Gb device (Table 1: `tRFC` = 410 ns).
    #[must_use]
    pub fn ddr5_3200_32gb() -> Self {
        Self {
            t_rfc: Nanos::from_ns(410),
            ..Self::ddr5_3200_base()
        }
    }

    /// Retention interval implied by `tREFI` (JEDEC: `tREFI × 8192`).
    #[must_use]
    pub fn retention(&self) -> Nanos {
        self.t_refi * REFS_PER_RETENTION
    }

    /// Fraction of time a rank spends locked in all-bank refresh
    /// (`tRFC / tREFI`), the window XFM scavenges.
    #[must_use]
    pub fn refresh_duty_cycle(&self) -> f64 {
        self.t_rfc.as_ps() as f64 / self.t_refi.as_ps() as f64
    }

    /// Latency of the *first* 4 KiB conditional page read in a refresh
    /// window: `tRCD + tCL + 32 × tBURST` (paper Fig. 6b).
    ///
    /// 32 bursts move 512 B out of each of the 8 lockstep chips — one
    /// whole 4 KiB page per rank.
    #[must_use]
    pub fn conditional_read_first(&self) -> Nanos {
        self.t_rcd + self.t_cl + self.t_burst * 32
    }

    /// Incremental latency of each subsequent conditional page read:
    /// `tRCD + tCL` overlaps the tail of the previous burst, so only the
    /// 32-burst data transfer remains exposed (paper §5).
    #[must_use]
    pub fn conditional_read_next(&self) -> Nanos {
        self.t_burst * 32
    }

    /// Maximum number of 4 KiB conditional accesses that fit in one `tRFC`
    /// window (paper §5: 4, 3, and 2 for 32 Gb, 16 Gb, and 8 Gb chips).
    #[must_use]
    pub fn max_conditional_accesses(&self) -> u32 {
        let first = self.conditional_read_first();
        if self.t_rfc < first {
            return 0;
        }
        let rest = (self.t_rfc - first).as_ps() / self.conditional_read_next().as_ps();
        1 + u32::try_from(rest).expect("access count fits u32")
    }

    /// Peak channel bandwidth implied by the burst parameters.
    #[must_use]
    pub fn peak_bandwidth(&self) -> xfm_types::Bandwidth {
        xfm_types::Bandwidth::from_bytes_per_sec(
            self.burst_bytes as f64 / self.t_burst.as_secs_f64(),
        )
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`xfm_types::Error::InvalidConfig`] when a basic datasheet
    /// relation is violated (e.g. `tRC < tRCD`, zero burst time, or
    /// `tRFC ≥ tREFI`).
    pub fn validate(&self) -> xfm_types::Result<()> {
        if self.t_burst.is_zero() {
            return Err(xfm_types::Error::InvalidConfig(
                "tBURST must be non-zero".into(),
            ));
        }
        if self.t_rc < self.t_rcd {
            return Err(xfm_types::Error::InvalidConfig(
                "tRC must be at least tRCD".into(),
            ));
        }
        if self.t_rfc >= self.t_refi {
            return Err(xfm_types::Error::InvalidConfig(
                "tRFC must be smaller than tREFI".into(),
            ));
        }
        if self.burst_bytes == 0 {
            return Err(xfm_types::Error::InvalidConfig(
                "burst_bytes must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DramTimings {
    /// Defaults to the paper's emulator parameters.
    fn default() -> Self {
        Self::paper_emulator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for t in [
            DramTimings::paper_emulator(),
            DramTimings::ddr5_3200_8gb(),
            DramTimings::ddr5_3200_16gb(),
            DramTimings::ddr5_3200_32gb(),
        ] {
            t.validate().unwrap();
        }
    }

    #[test]
    fn paper_emulator_matches_methodology() {
        let t = DramTimings::paper_emulator();
        assert_eq!(t.t_rfc, Nanos::from_ns(410));
        assert_eq!(t.t_burst.as_ps(), 2_500);
        assert_eq!(t.retention(), Nanos::from_ms(32));
    }

    #[test]
    fn table1_trfc_values() {
        assert_eq!(DramTimings::ddr5_3200_8gb().t_rfc.as_ns(), 195);
        assert_eq!(DramTimings::ddr5_3200_16gb().t_rfc.as_ns(), 295);
        assert_eq!(DramTimings::ddr5_3200_32gb().t_rfc.as_ns(), 410);
    }

    #[test]
    fn conditional_read_timing_matches_fig6() {
        // tRCD + tCL + 32*tBURST = 15 + 15 + 80 = 110 ns.
        let t = DramTimings::ddr5_3200_32gb();
        assert_eq!(t.conditional_read_first().as_ns(), 110);
        assert_eq!(t.conditional_read_next().as_ns(), 80);
    }

    #[test]
    fn max_conditional_accesses_match_section5() {
        // Paper §5: "the maximum number of 4KB conditional accesses are
        // 4, 3, and 2 for 32Gb, 16Gb, and 8Gb chips."
        assert_eq!(DramTimings::ddr5_3200_32gb().max_conditional_accesses(), 4);
        assert_eq!(DramTimings::ddr5_3200_16gb().max_conditional_accesses(), 3);
        assert_eq!(DramTimings::ddr5_3200_8gb().max_conditional_accesses(), 2);
    }

    #[test]
    fn max_conditional_accesses_zero_when_window_too_small() {
        let t = DramTimings {
            t_rfc: Nanos::from_ns(50),
            ..DramTimings::ddr5_3200_8gb()
        };
        assert_eq!(t.max_conditional_accesses(), 0);
    }

    #[test]
    fn refresh_duty_cycle_near_paper_estimate() {
        // Paper §4.3: at tRFC = 300 ns the banks are locked ~2.46 ms of
        // every 32 ms (~7.7%).
        let t = DramTimings {
            t_rfc: Nanos::from_ns(300),
            ..DramTimings::paper_emulator()
        };
        let locked_ms = t.refresh_duty_cycle() * 32.0;
        assert!((locked_ms - 2.46).abs() < 0.01, "locked {locked_ms} ms");
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut t = DramTimings::paper_emulator();
        t.t_burst = Nanos::ZERO;
        assert!(t.validate().is_err());

        let mut t = DramTimings::paper_emulator();
        t.t_rfc = t.t_refi;
        assert!(t.validate().is_err());

        let mut t = DramTimings::paper_emulator();
        t.t_rc = Nanos::from_ns(1);
        assert!(t.validate().is_err());
    }

    #[test]
    fn ddr5_peak_bandwidth_matches_paper_claim() {
        // Paper §4.1: "the bandwidth of a DDR5 channel is 25GBps".
        // Our burst model: 64 B cacheline per 2.5 ns burst = 25.6 GB/s.
        let t = DramTimings::ddr5_3200_32gb();
        let bw = t.peak_bandwidth();
        assert!((bw.as_gbps() - 25.6).abs() < 0.1, "{bw}");
    }

    #[test]
    fn refi_is_retention_over_8192() {
        let t = DramTimings::paper_emulator();
        assert_eq!(t.t_refi.as_ps(), Nanos::from_ms(32).as_ps() / 8192);
    }
}
