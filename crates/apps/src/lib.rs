//! # lucid-apps
//!
//! The ten data-plane applications of the paper's Figure 9, written in
//! Lucid (sources in `programs/*.lucid`). The [`all`] registry carries the
//! metadata the evaluation binaries print (Figures 9, 15), and the `sfw`
//! module hosts the Figure 17 installation-time benchmark. The test-only
//! `rerouter` module measures §2.1's failover time on the RR app.

#![forbid(unsafe_code)]

pub mod sfw;

use lucid_check::CheckedProgram;

/// Figure 15's recirculation-use classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecircUse {
    /// Timed loops walking data structures: `O(entries / scan interval)`.
    Maintenance,
    /// New flows trigger recirculation: `E[O(flow rate)]`.
    FlowSetup,
    /// State updates recirculate through multiple switches:
    /// `O(update rate)`.
    StateSync,
}

impl RecircUse {
    pub fn label(self) -> &'static str {
        match self {
            RecircUse::Maintenance => "Data struct. maintenance",
            RecircUse::FlowSetup => "Flow setup",
            RecircUse::StateSync => "State synchronization",
        }
    }

    pub fn rate(self) -> &'static str {
        match self {
            RecircUse::Maintenance => "O(num. entries / scan interval)",
            RecircUse::FlowSetup => "E[O(flow rate)]",
            RecircUse::StateSync => "O(update rate)",
        }
    }
}

/// Static description of one Figure 9 application.
#[derive(Debug, Clone)]
pub struct AppInfo {
    /// Short key used by the CLI and bench binaries.
    pub key: &'static str,
    /// Figure 9 display name.
    pub name: &'static str,
    pub description: &'static str,
    /// The bolded "role of control events" from Figure 9.
    pub control_role: &'static str,
    /// Figure 15 classification.
    pub recirc_uses: &'static [RecircUse],
    /// Lucid source text.
    pub source: &'static str,
}

impl AppInfo {
    /// Non-blank, non-comment lines of Lucid source (the Figure 9 metric).
    pub fn lucid_loc(&self) -> usize {
        self.source
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    }

    /// Parse and check the program, panicking with rendered diagnostics on
    /// failure (the sources in this crate must always check).
    pub fn checked(&self) -> CheckedProgram {
        match lucid_check::parse_and_check(self.source) {
            Ok(p) => p,
            Err(ds) => {
                let sm = lucid_frontend::SourceMap::new(self.key, self.source);
                panic!("{} does not check:\n{}", self.name, ds.render(&sm));
            }
        }
    }
}

use RecircUse::*;

/// The Figure 9 suite, in the paper's row order.
pub fn all() -> Vec<AppInfo> {
    vec![
        AppInfo {
            key: "sfw",
            name: "Stateful Firewall (SFW)",
            description: "Blocks connections not initiated by trusted hosts.",
            control_role: "Control events update a Cuckoo hash table.",
            recirc_uses: &[Maintenance, FlowSetup],
            source: include_str!("../programs/stateful_firewall.lucid"),
        },
        AppInfo {
            key: "rr",
            name: "Fast Rerouter (RR)",
            description: "Forwards packets, identifies failures, and routes.",
            control_role: "Control events perform fault detection and routing.",
            recirc_uses: &[Maintenance, FlowSetup],
            source: include_str!("../programs/fast_rerouter.lucid"),
        },
        AppInfo {
            key: "dns",
            name: "Closed-loop DNS Defense (DNS)",
            description: "Detects/blocks DNS reflection attacks with sketches & Bloom filters.",
            control_role: "Control events age data structures.",
            recirc_uses: &[Maintenance],
            source: include_str!("../programs/dns_defense.lucid"),
        },
        AppInfo {
            key: "starflow",
            name: "*Flow",
            description: "Batches packet tuples by flow to accelerate analytics.",
            control_role: "Control events allocate memory.",
            recirc_uses: &[FlowSetup],
            source: include_str!("../programs/starflow.lucid"),
        },
        AppInfo {
            key: "sro",
            name: "Consistent Shared State (SRO)",
            description: "Strongly consistent distributed arrays.",
            control_role: "Control events synchronize writes.",
            recirc_uses: &[StateSync],
            source: include_str!("../programs/shared_state.lucid"),
        },
        AppInfo {
            key: "dfw",
            name: "Distributed Prob. Firewall (DFW)",
            description: "Distributed Bloom filter firewall.",
            control_role: "Control events sync. updates.",
            recirc_uses: &[StateSync],
            source: include_str!("../programs/dist_firewall.lucid"),
        },
        AppInfo {
            key: "dfw_aging",
            name: "DFW + Aging (DFW(a))",
            description: "Distributed Bloom filter firewall with rotating generations.",
            control_role: "Adds control events for aging.",
            recirc_uses: &[Maintenance, StateSync],
            source: include_str!("../programs/dist_firewall_aging.lucid"),
        },
        AppInfo {
            key: "rip",
            name: "Single-dest. RIP",
            description: "Routing with the classic Route Information Protocol.",
            control_role: "Control events distribute routes.",
            recirc_uses: &[Maintenance],
            source: include_str!("../programs/rip_router.lucid"),
        },
        AppInfo {
            key: "nat",
            name: "Simple NAT",
            description: "Basic network address translation.",
            control_role: "Control events buffer packets and install entries.",
            recirc_uses: &[FlowSetup],
            source: include_str!("../programs/nat.lucid"),
        },
        AppInfo {
            key: "cm",
            name: "Historical Prob. Queries (CM)",
            description: "Measures flows with sketches for historical queries.",
            control_role: "Control events age and export state periodically.",
            recirc_uses: &[Maintenance],
            source: include_str!("../programs/historical_sketch.lucid"),
        },
    ]
}

/// Look up one app by key.
pub fn by_key(key: &str) -> Option<AppInfo> {
    all().into_iter().find(|a| a.key == key)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn ten_apps_like_figure9() {
        assert_eq!(all().len(), 10);
    }

    #[test]
    fn every_app_parses_and_checks() {
        for app in all() {
            let _ = app.checked();
        }
    }

    #[test]
    fn every_app_compiles_to_the_tofino_model() {
        for app in all() {
            let mut build = lucid_core::Compiler::new().build(app.key, app.source);
            let Ok(layout) = build.layout() else {
                panic!(
                    "{} failed to compile:\n{}",
                    app.name,
                    build.render_diagnostics()
                );
            };
            assert!(
                layout.total_stages <= 12,
                "{} needs {} stages",
                app.name,
                layout.total_stages
            );
        }
    }

    #[test]
    fn lucid_loc_in_figure9_ballpark() {
        // Figure 9 reports 41–215 Lucid lines per app.
        for app in all() {
            let loc = app.lucid_loc();
            assert!(
                (20..=260).contains(&loc),
                "{}: {loc} lines is far outside the paper's range",
                app.name
            );
        }
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<_> = all().iter().map(|a| a.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn figure15_classes_match_paper_rows() {
        let find = |k: &str| by_key(k).unwrap();
        assert!(find("sfw").recirc_uses.contains(&RecircUse::Maintenance));
        assert!(find("sfw").recirc_uses.contains(&RecircUse::FlowSetup));
        assert!(find("sro").recirc_uses.contains(&RecircUse::StateSync));
        assert!(find("nat").recirc_uses.contains(&RecircUse::FlowSetup));
        assert!(find("cm").recirc_uses.contains(&RecircUse::Maintenance));
    }
}

/// Fast-rerouter failover measurement — §2.1's motivating quantity.
/// Detecting and routing around a failed link takes two rounds of
/// messages; with control in the data plane each message costs ~1 µs of
/// wire time, while the same logic on the switch's management CPU pays
/// ~100 µs of OS socket latency per message plus PCIe crossings (§2.1
/// cites ~400 µs of OS-added latency alone).
#[cfg(test)]
mod rerouter {
    use lucid_interp::{Interp, NetConfig};

    /// Result of one failover measurement, all in simulation ns.
    #[derive(Debug, Clone, Copy)]
    struct FailoverReport {
        /// When the next hop died.
        failed_at_ns: u64,
        /// When a packet first observed the link as stale.
        detected_at_ns: u64,
        /// When the route pointed at the surviving neighbor again.
        restored_at_ns: u64,
        /// Reroute latency: staleness detection → restored route.
        reroute_ns: u64,
    }

    /// §2.1's model of the same control loop run on the switch CPU: two
    /// message rounds, each crossing the OS socket path (~100 µs one-way,
    /// per the StackMap numbers the paper cites).
    const REMOTE_FAILOVER_ESTIMATE_NS: u64 = 4 * 100_000;

    /// Run the §2 scenario: forward via neighbor 2, kill it, measure how long
    /// the data plane takes to re-point the route at neighbor 3 once a packet
    /// hits the stale link (the program's staleness threshold is 500 µs).
    fn failover_benchmark() -> FailoverReport {
        let prog = super::by_key("rr").expect("registered").checked();
        let mut sim = Interp::new(&prog, NetConfig::mesh(3));
        const DST: u64 = 5;
        sim.schedule(1, 0, "init_route", &[DST, 2, 2])
            .expect("init");
        sim.schedule(2, 0, "init_route", &[DST, 1, 9])
            .expect("init");
        sim.schedule(3, 0, "init_route", &[DST, 1, 9])
            .expect("init");
        for s in [1, 2, 3] {
            sim.schedule(s, 1_000, "ping_all", &[]).expect("pings");
        }
        sim.run(400_000, 1_000_000).expect("warm-up");

        let failed_at_ns = sim.now_ns;
        sim.fail_switch(2);

        // Probe with packets every 50 µs until one detects the stale link
        // (observed as a `check_route`) and then until delivery resumes via
        // switch 3.
        let mut detected_at_ns = 0;
        let mut restored_at_ns = 0;
        let mut t = failed_at_ns + 50_000;
        for _ in 0..200 {
            sim.clear_trace();
            sim.schedule(1, t, "pkt", &[DST]).expect("probe");
            sim.run(400_000, t + 45_000).expect("probe round");
            if detected_at_ns == 0 {
                if let Some(h) = sim.trace.iter().find(|h| &*h.event == "check_route") {
                    detected_at_ns = h.time_ns;
                }
            }
            if let Some(h) = sim
                .trace
                .iter()
                .find(|h| &*h.event == "deliver" && h.switch == 1 && h.args[1] == 3)
            {
                restored_at_ns = h.time_ns;
                break;
            }
            t += 50_000;
        }
        assert!(
            detected_at_ns > 0 && restored_at_ns > 0,
            "failover did not complete"
        );
        FailoverReport {
            failed_at_ns,
            detected_at_ns,
            restored_at_ns,
            reroute_ns: restored_at_ns - detected_at_ns,
        }
    }

    mod tests {
        use super::*;

        #[test]
        fn failover_completes_and_is_fast() {
            let r = failover_benchmark();
            // Detection is bounded by the 500 µs staleness threshold plus the
            // probe cadence; the *reroute* itself (query + reply + next packet
            // round) is the §2.1 quantity and must be tens of microseconds.
            assert!(r.detected_at_ns > r.failed_at_ns);
            assert!(r.restored_at_ns > r.detected_at_ns);
            assert!(
                r.reroute_ns < 120_000,
                "reroute took {} ns — should be a few message rounds",
                r.reroute_ns
            );
        }

        #[test]
        fn data_plane_beats_the_os_path_estimate() {
            let r = failover_benchmark();
            assert!(
                r.reroute_ns < REMOTE_FAILOVER_ESTIMATE_NS,
                "data-plane reroute {} ns vs OS-path estimate {} ns",
                r.reroute_ns,
                REMOTE_FAILOVER_ESTIMATE_NS
            );
        }

        #[test]
        fn failover_is_deterministic() {
            let a = failover_benchmark();
            let b = failover_benchmark();
            assert_eq!(a.reroute_ns, b.reroute_ns);
            assert_eq!(a.restored_at_ns, b.restored_at_ns);
        }
    }
}
