//! Resource model of a PISA/Tofino match-action pipeline (§2.2).
//!
//! The compiler backend allocates atomic tables against this model; the
//! evaluation binaries read stage counts out of the resulting layouts. The
//! numbers below follow the public Tofino-1 descriptions used by the paper:
//! 12 match stages per pipeline, a limited number of logical tables and
//! stateful ALUs per stage, and one register (SRAM array) access per packet
//! per stage.

/// Static resource description of one PISA pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Match-action stages available to the program.
    pub stages: usize,
    /// Logical match-action tables per stage.
    pub tables_per_stage: usize,
    /// Stateful ALUs per stage — one register array access each.
    pub salus_per_stage: usize,
    /// Header/metadata ALU operations (VLIW action slots) per stage.
    pub action_slots_per_stage: usize,
    /// SRAM available for register arrays per stage, in bits.
    pub register_bits_per_stage: u64,
    /// Pipeline clock rate: one packet per cycle (§2.2).
    pub clock_hz: u64,
    /// Number of front-panel ports.
    pub front_panel_ports: usize,
    /// Line rate per port, bits/second.
    pub port_gbps: u64,
    /// Shared packet buffer (bytes). Tofino: 22 MB (§7.2).
    pub packet_buffer_bytes: u64,
}

impl PipelineSpec {
    /// The Tofino-like target the paper compiles to.
    pub fn tofino() -> Self {
        PipelineSpec {
            stages: 12,
            tables_per_stage: 16,
            salus_per_stage: 4,
            action_slots_per_stage: 16,
            // 4 register blocks of 128 Kb per stage — enough for the
            // paper's applications, small enough to make layout non-trivial.
            register_bits_per_stage: 4 * 128 * 1024,
            clock_hz: 1_000_000_000,
            front_panel_ports: 128,
            port_gbps: 100,
            packet_buffer_bytes: 22 * 1024 * 1024,
        }
    }

    /// The idealized PISA processor of §7.3: 1 B packets/s, 10 front-panel
    /// ports at 100 Gb/s plus a 100 Gb/s recirculation port.
    pub fn idealized_pisa() -> Self {
        PipelineSpec {
            front_panel_ports: 10,
            ..Self::tofino()
        }
    }

    /// Aggregate front-panel bandwidth in bits/second.
    pub fn front_panel_bps(&self) -> u64 {
        self.front_panel_ports as u64 * self.port_gbps * 1_000_000_000
    }
}

/// Mutable per-stage resource accounting used during table placement.
#[derive(Debug, Clone, Default)]
pub struct StageUsage {
    pub tables: usize,
    pub salus: usize,
    pub action_slots: usize,
    pub register_bits: u64,
    /// Which global arrays are placed in this stage (by id).
    pub arrays: Vec<usize>,
}

impl StageUsage {
    /// Can this stage still take a table needing the given resources?
    pub fn fits(
        &self,
        spec: &PipelineSpec,
        salus: usize,
        action_slots: usize,
        register_bits: u64,
    ) -> bool {
        self.tables < spec.tables_per_stage
            && self.salus + salus <= spec.salus_per_stage
            && self.action_slots + action_slots <= spec.action_slots_per_stage
            && self.register_bits + register_bits <= spec.register_bits_per_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino_spec_matches_paper_constants() {
        let t = PipelineSpec::tofino();
        assert_eq!(t.stages, 12);
        assert_eq!(t.packet_buffer_bytes, 22 * 1024 * 1024);
        // §7.2: "a bit more than 320KB per port" — the fair share of
        // packet buffer per port.
        let per_port = t.packet_buffer_bytes / t.front_panel_ports as u64;
        assert!(per_port > 320 * 500); // > 160 KB sanity
        assert_eq!(per_port, 22 * 1024 * 1024 / 128);
    }

    #[test]
    fn idealized_pisa_has_ten_ports() {
        let p = PipelineSpec::idealized_pisa();
        assert_eq!(p.front_panel_ports, 10);
        assert_eq!(p.front_panel_bps(), 1_000_000_000_000);
    }

    #[test]
    fn stage_usage_respects_all_budgets() {
        let spec = PipelineSpec::tofino();
        let mut u = StageUsage::default();
        assert!(u.fits(&spec, 1, 1, 1024));
        u.salus = spec.salus_per_stage;
        assert!(!u.fits(&spec, 1, 0, 0), "sALUs exhausted");
        u.salus = 0;
        u.tables = spec.tables_per_stage;
        assert!(!u.fits(&spec, 0, 0, 0), "tables exhausted");
    }
}
